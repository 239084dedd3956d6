"""Command-line front end.

Subcommands: count, bounds, frobenius, bf, dhat, verify.  Each row command
yields row dicts to one emitter for --format table|csv|json (json means one
object per line; json and csv write each row as it comes).  verify always
emits a single JSON report.  Exit codes: 0 success, 1 a verification sweep
found failures (or an internal identity broke), 2 bad usage, 3 a
precondition was violated (non-coprime input, out-of-range query, an input
over a budget, a sweep that skipped every instance, ...).

The argument parser is built once per process, at import, and every call
of ``main`` parses with it; ``build_parser`` returns a new one each time.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from .bfnum import bf_explicit
from .bounds import _RelaxedChain, _Sandwich
from .core import (
    BudgetExceededError,
    DenumerantError,
    InvariantViolationError,
    NotApplicableError,
    as_coeffs,
    format_rational,
)
from .exact import (
    _OracleBudget,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
)
from .frobenius import bound_frobenius
from .sweep import SUITE_NAMES, SweepConfig, run_verify

# The most targets one --n-range may span, checked before any is computed.
# It caps the cells a table holds for its widths: on a 2-core x86-64 host,
# bounds at this width on the primes up to 17 took 3-5 s and peaked at
# 88 MB as a table, 32 MB as json (which streams, as csv does).
N_RANGE_MAX_WIDTH = 100_000


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return as_coeffs([int(part) for part in text.split(",")])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid coefficients {text!r}: {err}")


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _targets(args: argparse.Namespace) -> range:
    lo, hi = args.n_range if args.n is None else (args.n, args.n)
    if hi - lo + 1 > N_RANGE_MAX_WIDTH:
        raise BudgetExceededError(
            f"--n-range {lo}:{hi} spans {hi - lo + 1} targets, over the cap of "
            f"{N_RANGE_MAX_WIDTH}"
        )
    return range(lo, hi + 1)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _json_value(value: object) -> object:
    # json.dumps writes bools, ints and tuples (as lists) itself.
    if value is None or isinstance(value, (int, tuple)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _emit_rows(
    rows: Iterator[dict], columns: Sequence[str], fmt: str, stream: TextIO
) -> None:
    # Every row command yields at least one row.  Computing the first before
    # anything is written keeps the output empty when it fails; a failure
    # further on keeps the json and csv rows written so far.
    rows = itertools.chain([next(rows)], rows)
    if fmt == "json":
        for row in rows:
            stream.write(
                json.dumps({c: _json_value(row.get(c)) for c in columns}) + "\n"
            )
        return
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(columns)
        writer.writerows([_cell(row.get(c)) for c in columns] for row in rows)
        return
    lines = [columns, *([_cell(row.get(c)) for c in columns] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        stream.write("  ".join(map(str.ljust, line, widths)).rstrip() + "\n")


def _count_rows(args: argparse.Namespace) -> Iterator[dict]:
    coeffs = args.coeffs
    # Every target of the command draws on one oracle node budget.
    budget = _OracleBudget()
    for n in _targets(args):
        if args.method == "oracle":
            result = oracle_count(coeffs, n, budget)
        elif args.method == "popoviciu":
            if len(coeffs) != 2:
                raise NotApplicableError("the closed form applies to pairs only")
            result = popoviciu(coeffs[0], coeffs[1], n)
        else:
            result = denumerant(coeffs, n)
        yield {"coeffs": coeffs, "n": n, "value": result.value, "method": result.method}


def _bounds_rows(args: argparse.Namespace) -> Iterator[dict]:
    # D(a, n) = D(a/d, n/d) when d = gcd(a) divides n, and 0 otherwise, so
    # the sandwich for the coprime a/d bounds every target d divides.
    coeffs = args.coeffs
    d = math.gcd(*coeffs)
    sandwich = None
    for n in _targets(args):
        # This also rejects a negative n before the shortcut below.
        exact = denumerant(coeffs, n).value
        if n % d:
            # No solutions and no meaningful bounds at this target.
            yield {
                "coeffs": coeffs, "n": n, "exact": exact, "applicable": False, "ok": True
            }
            continue
        if sandwich is None:
            # Prepared at the first target d divides, where a single
            # coefficient is refused under the tuple as given.
            sandwich = _Sandwich.of(coeffs)
        report = sandwich.at(n // d)
        lower_b = sandwich.series_lower(n // d) if report.applicable_lower else None
        # lower_a <= lower_b <= exact also gives the sandwich's lower side.
        ok = exact <= report.upper_a and (
            lower_b is None or report.lower_a <= lower_b <= exact
        )
        yield {
            "coeffs": coeffs,
            "n": n,
            "exact": exact,
            "lower_a": report.lower_a,
            "lower_b": lower_b,
            "upper_a": report.upper_a,
            "applicable": report.applicable_lower,
            "ok": ok,
        }


def _frobenius_rows(args: argparse.Namespace) -> Iterator[dict]:
    yield vars(bound_frobenius(args.coeffs))


def _bf_rows(args: argparse.Namespace) -> Iterator[dict]:
    if args.offset < 0:
        raise ValueError(f"offset must be >= 0, got {args.offset}")
    if 1 <= args.ell <= args.m:
        value = bf_explicit(args.coeffs, args.offset, args.m)[args.ell]
    else:
        # The triangle's edges read no coefficient: 0 off it, 1 at l = 0.
        value = Fraction(1 if args.ell == 0 <= args.m else 0)
    yield {
        "coeffs": args.coeffs,
        "r": args.offset,
        "m": args.m,
        "ell": args.ell,
        "value": value,
    }


def _dhat_rows(args: argparse.Namespace) -> Iterator[dict]:
    targets = _targets(args)
    chain = _RelaxedChain(args.coeffs)
    for n in targets:
        exact = extended_count(args.coeffs, n).value
        lower, middle, upper = chain.at(n)
        yield {
            "coeffs": args.coeffs,
            "n": n,
            "exact": exact,
            "lower": lower,
            "middle": middle,
            "upper": upper,
            "ok": lower <= middle <= exact <= upper,
        }


def _cmd_verify(args: argparse.Namespace, stream: TextIO) -> int:
    cfg = SweepConfig(
        suite=args.suite,
        seed=args.seed,
        trials=args.trials,
        k_range=args.k_range,
        max_coeff=args.max_coeff,
        n_max=args.n_max,
    )
    report = run_verify(cfg)
    stream.write(report.to_json() + "\n")
    print(
        f"{report.suite}: {report.instances} instances, "
        f"{len(report.failures)} failures, {report.wall_time_s:.2f}s"
        f"{_skip_note(report.skipped)}",
        file=sys.stderr,
    )
    if sum(report.skipped.values()) == report.instances:
        # A sweep that skipped every instance checked nothing; passing it
        # would be vacuous.
        print("error: nothing checked, every instance was skipped", file=sys.stderr)
        return 3
    return 0 if report.passed else 1


def _skip_note(skipped: dict[str, int]) -> str:
    """The summary's suffix for skipped instances, such as
    " (5 skipped: BudgetExceededError)", with a count per exception name
    when there are several; empty when nothing was skipped."""
    if not skipped:
        return ""
    if len(skipped) == 1:
        kinds = next(iter(skipped))
    else:
        kinds = ", ".join(f"{count} {name}" for name, count in skipped.items())
    return f" ({sum(skipped.values())} skipped: {kinds})"


def build_parser() -> argparse.ArgumentParser:
    # The row commands: count, bounds, dhat, frobenius and bf.  Each sets
    # `rows`, its row generator, and `columns`, the names it writes.
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="row output format (json writes one object per line)",
    )
    rows.add_argument("--out", metavar="PATH", help="write output to a file")
    # count, bounds and dhat: one tuple at one target or a range of them.
    targets = argparse.ArgumentParser(add_help=False, parents=[rows])
    targets.add_argument("--coeffs", type=_parse_coeffs, required=True)
    group = targets.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-range", type=_parse_range, metavar="LO:HI")

    parser = argparse.ArgumentParser(
        prog="denumerant",
        description="Count solutions of a1*x1 + ... + ak*xk = n and bound them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[targets], help="exact solution counts")
    p.add_argument(
        "--method",
        choices=("recursion", "oracle", "popoviciu"),
        default="recursion",
    )
    p.set_defaults(rows=_count_rows, columns=("coeffs", "n", "value", "method"))

    p = sub.add_parser(
        "bounds", parents=[targets], help="two-sided bounds next to the exact count"
    )
    p.set_defaults(
        rows=_bounds_rows,
        columns=(
            "coeffs", "n", "exact", "lower_a", "lower_b", "upper_a", "applicable", "ok"
        ),
    )

    p = sub.add_parser(
        "frobenius", parents=[rows], help="Frobenius number with certified enclosures"
    )
    p.add_argument("--coeffs", type=_parse_coeffs, required=True)
    # The sandwich never certifies a root bound, so the last two columns are
    # always empty; they stay so that the output keeps its shape.
    p.set_defaults(
        rows=_frobenius_rows,
        columns=("coeffs", "g", "brauer_upper", "root_lower_1", "root_lower_2"),
    )

    p = sub.add_parser(
        "bf", parents=[rows], help="triangular bound weights [[m, l]] at an offset"
    )
    p.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p.add_argument("-r", "--offset", type=int, default=0)
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("-l", "--ell", type=int, required=True, dest="ell")
    p.set_defaults(rows=_bf_rows, columns=("coeffs", "r", "m", "ell", "value"))

    p = sub.add_parser(
        "dhat", parents=[targets], help="relaxed count (sum <= n) with its bound chain"
    )
    p.set_defaults(
        rows=_dhat_rows,
        columns=("coeffs", "n", "exact", "lower", "middle", "upper", "ok"),
    )

    p = sub.add_parser("verify", help="run one randomized verification suite")
    p.add_argument("--out", metavar="PATH", help="write the report to a file")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument(
        "--seed", type=int, default=SweepConfig.seed, help="seed for randomized sweeps"
    )
    p.add_argument("--trials", type=int, default=SweepConfig.trials)
    p.add_argument(
        "--k-range", type=_parse_range, default=SweepConfig.k_range, metavar="LO:HI"
    )
    p.add_argument("--max-coeff", type=int, default=SweepConfig.max_coeff)
    p.add_argument("--n-max", type=int, default=SweepConfig.n_max)

    return parser


# One parser per process: argparse keeps each parse's state in its own
# Namespace and locals, so every call of main shares this one.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as stream:
        try:
            if args.command == "verify":
                return _cmd_verify(args, stream)
            _emit_rows(args.rows(args), args.columns, args.format, stream)
            return 0
        except InvariantViolationError as err:
            print(f"invariant violated: {err}", file=sys.stderr)
            return 1
        except DenumerantError as err:
            print(f"error: {err}", file=sys.stderr)
            return 3
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
