"""Command-line front end.

Subcommands: count, bounds, frobenius, bf, dhat, verify.  Row-oriented
commands honor --format table|csv|json (json means one object per line);
verify always emits a single JSON report.  Exit codes: 0 success, 1 a
verification sweep found failures (or an internal identity broke), 2 bad
usage, 3 a precondition was violated (non-coprime input, out-of-range
query, exhausted enumeration or table budget, ...).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Sequence, TextIO

from .bfnum import BFQuery, bf_explicit
from .bounds import inequality_a, inequality_b_lower, relaxed_count_chain
from .core import (
    DenumerantError,
    InvariantViolationError,
    NotApplicableError,
    NotCoprimeError,
    format_rational,
)
from .exact import denumerant, extended_count, oracle_count, popoviciu
from .frobenius import bound_frobenius
from .sweep import SUITE_NAMES, SweepConfig, run_verify

def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse coefficients from {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("coefficients must be >= 1")
    return values


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


def _targets(args: argparse.Namespace) -> list[int]:
    if args.n is not None:
        return [args.n]
    lo, hi = args.n_range
    return list(range(lo, hi + 1))


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
    rows: list[dict], columns: list[str], fmt: str, stream: TextIO
) -> None:
    if fmt == "json":
        for row in rows:
            stream.write(
                json.dumps({c: _json_value(row.get(c)) for c in columns}) + "\n"
            )
        return
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
        return
    cells = [[_cell(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(name), *(len(line[i]) for line in cells)) if cells else len(name)
        for i, name in enumerate(columns)
    ]
    stream.write("  ".join(name.ljust(widths[i]) for i, name in enumerate(columns)).rstrip() + "\n")
    for line in cells:
        stream.write("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))).rstrip() + "\n")


def _cmd_count(args: argparse.Namespace, stream: TextIO) -> int:
    coeffs = args.coeffs
    rows = []
    for n in _targets(args):
        if args.method == "oracle":
            result = oracle_count(coeffs, n)
        elif args.method == "popoviciu":
            if len(coeffs) != 2:
                raise NotApplicableError("the closed form applies to pairs only")
            result = popoviciu(coeffs[0], coeffs[1], n)
        else:
            result = denumerant(coeffs, n)
        rows.append(
            {"coeffs": coeffs, "n": n, "value": result.value, "method": result.method}
        )
    _emit_rows(rows, ["coeffs", "n", "value", "method"], args.format, stream)
    return 0


def _cmd_bounds(args: argparse.Namespace, stream: TextIO) -> int:
    coeffs = args.coeffs
    rows = []
    columns = ["coeffs", "n", "exact", "lower_a", "lower_b", "upper_a", "applicable", "ok"]
    d = math.gcd(*coeffs)
    if d > 1 and not args.auto_reduce:
        raise NotCoprimeError(
            f"{coeffs} has gcd {d}; pass --auto-reduce or divide it out"
        )
    for n in _targets(args):
        if n % d:
            # No solutions and no meaningful bounds at this target.
            rows.append(
                {"coeffs": coeffs, "n": n, "exact": 0, "applicable": False, "ok": True}
            )
            continue
        work = tuple(c // d for c in coeffs)
        target = n // d
        exact = denumerant(coeffs, n).value
        report = inequality_a(work, target, exact)
        lower_b = None
        if args.inequality in ("b", "both") and report.applicable_lower:
            lower_b = inequality_b_lower(work, target)
        ok = bool(report.sandwich_ok) and (
            lower_b is None or report.lower_a <= lower_b <= exact
        )
        rows.append(
            {
                "coeffs": coeffs,
                "n": n,
                "exact": exact,
                "lower_a": report.lower_a,
                "lower_b": lower_b,
                "upper_a": report.upper_a,
                "applicable": report.applicable_lower,
                "ok": ok,
            }
        )
    _emit_rows(rows, columns, args.format, stream)
    return 0


def _cmd_frobenius(args: argparse.Namespace, stream: TextIO) -> int:
    report = bound_frobenius(args.coeffs)
    _emit_rows(
        [vars(report)],
        ["coeffs", "g", "brauer_upper", "root_lower_1", "root_lower_2"],
        args.format,
        stream,
    )
    return 0


def _cmd_bf(args: argparse.Namespace, stream: TextIO) -> int:
    q = BFQuery(args.coeffs, args.offset, args.m, args.ell)
    value = bf_explicit(q)
    rows = [
        {
            "coeffs": args.coeffs,
            "r": args.offset,
            "m": args.m,
            "ell": args.ell,
            "value": value,
        }
    ]
    _emit_rows(rows, ["coeffs", "r", "m", "ell", "value"], args.format, stream)
    return 0


def _cmd_dhat(args: argparse.Namespace, stream: TextIO) -> int:
    coeffs = args.coeffs
    rows = []
    for n in _targets(args):
        exact = extended_count(coeffs, n).value
        lower, middle, upper = relaxed_count_chain(coeffs, n)
        ok = lower <= middle <= exact <= upper
        rows.append(
            {
                "coeffs": coeffs,
                "n": n,
                "exact": exact,
                "lower": lower,
                "middle": middle,
                "upper": upper,
                "ok": ok,
            }
        )
    _emit_rows(
        rows, ["coeffs", "n", "exact", "lower", "middle", "upper", "ok"], args.format, stream
    )
    return 0


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="row output format (json writes one object per line)",
    )
    common.add_argument("--out", metavar="PATH", help="write output to a file")
    # count, bounds and dhat: one tuple at one target or a range of them.
    targets = argparse.ArgumentParser(add_help=False, parents=[common])
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
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "bounds", parents=[targets], help="two-sided bounds next to the exact count"
    )
    p.add_argument("--inequality", choices=("a", "b", "both"), default="both")
    p.add_argument(
        "--auto-reduce",
        action="store_true",
        help="divide a non-coprime tuple by its gcd instead of rejecting it",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "frobenius", parents=[common], help="Frobenius number with certified enclosures"
    )
    p.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser(
        "bf", parents=[common], help="triangular bound weights [[m, l]] at an offset"
    )
    p.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p.add_argument("-r", "--offset", type=int, default=0)
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("-l", "--ell", type=int, required=True, dest="ell")
    p.set_defaults(handler=_cmd_bf)

    p = sub.add_parser(
        "dhat", parents=[targets], help="relaxed count (sum <= n) with its bound chain"
    )
    p.set_defaults(handler=_cmd_dhat)

    p = sub.add_parser(
        "verify", parents=[common], help="run one randomized verification suite"
    )
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--seed", type=int, default=1, help="seed for randomized sweeps")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--k-range", type=_parse_range, default=(2, 4), metavar="LO:HI")
    p.add_argument("--max-coeff", type=int, default=12)
    p.add_argument("--n-max", type=int, default=120)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as stream:
        try:
            return args.handler(args, stream)
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
