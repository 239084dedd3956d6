"""Command-line front end.

Subcommands: count, bounds, frobenius, bf, dhat, verify.  verify always
emits a single JSON report; the others are row commands.  Exit codes: 0
success, 1 a verification sweep found failures (or an internal identity
broke), 2 bad usage (an --out path that cannot be opened too), 3 a
precondition was violated (non-coprime input, out-of-range query, an input
over a budget or a value too long for Python to print, a sweep that
skipped every instance, ...).  A closed stdout ends the command as it ends
``cat``, by SIGPIPE with no traceback, where the platform has SIGPIPE.

A row command yields each row as a tuple of its columns after ``coeffs``
to one writer, ``_emit_rows``, the one place where values become text, for
--format table|csv|json (json means one object per line; json and csv
write each row as it comes).  Each command declares its columns once, as
names with kinds (``_Columns``): int, ratio (a pair (num, den), or None
where the column has no value), bool or str.  Each kind has one render per
format, picked once per command, so no value goes through a test of its
type: a ratio prints as p/q through one gcd (the text of ``Fraction``),
and json renders each value as json.dumps writes it into a line template
whose fields after ``coeffs`` are built once per command.  Each row is
rendered and written before the next is computed, so a failure at the first
row leaves the output empty and one further on keeps the json and csv rows
written so far.

count, bounds and dhat serve their targets, one --n or a --n-range, in
spans: ``exact._RowReader.spans`` gives the counts of the targets one held
row answers as one list, and bounds and dhat cut it into runs of at most
``_RUN`` targets.  The sandwich gives the bounds of a run by column
(``bounds._Sandwich.numerators``), each an integer numerator over a fixed
denominator, and tests the counts against them by column (``contains``, the
ok column).  dhat's relaxed counts are one ``relaxed`` read at a run's
first target and a running sum over the run.  With d = gcd(a) > 1, count
and bounds read the row only at the targets d divides; a target before the
first of them is written before the row is read.

The argument parser is built once per process, at import; ``build_parser``
returns a new one each time.  ``main`` first tries the plain form, read
from a table taken from that parser at import: an exact subcommand name,
then (option, value) pairs, each option one of the subcommand's option
strings in full and given once, no value starting with ``-``.  It applies
the parser's types, choices, defaults, required options and exclusive
group, and builds the Namespace argparse would.  Every other argv (help,
--opt=value, an abbreviation, a repeat, a negative value) and every usage
error goes to argparse, which parses it and writes the help or the error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import operator
import re
import signal
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import accumulate, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Callable, Iterator, Sequence, TextIO

from .bfnum import bf_explicit
from .bounds import _Sandwich
from .core import (
    BudgetExceededError,
    DenumerantError,
    InvariantViolationError,
    NotApplicableError,
    as_coeffs,
)
from .exact import _OracleBudget, _RowReader, oracle_count, popoviciu
from .frobenius import bound_frobenius
from .sweep import SUITE_NAMES, SweepConfig, run_verify

# The most targets one --n-range may span, checked before any is computed.
# It caps the cells a table holds for its widths: on a 2-core x86-64 host,
# bounds at this width on the primes up to 17 took 0.85-1.25 s and peaked
# at 80 MB as a table, and 0.75-1.05 s at 26 MB as json (which streams, as
# csv does, holding the counts of one span of at most 2^14 targets and the
# bounds of one run of at most ``_RUN``).
N_RANGE_MAX_WIDTH = 100_000


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return as_coeffs([int(part) for part in text.split(",")])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid coefficients {text!r}: {err}")


# The text int accepts in base 10.  int checks this first, so an int literal
# it refuses is refused for its length.
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _int(text: str, malformed: str) -> int:
    """int(text), or the argparse error ``malformed`` for text that is no int.
    From Python 3.11 (and 3.10.7) int refuses more digits than the
    interpreter's limit, and its message, which names the limit, is kept."""
    try:
        return int(text)
    except ValueError as err:
        too_long = _INT_LITERAL.fullmatch(text) is not None
        raise argparse.ArgumentTypeError(str(err) if too_long else malformed) from None


def _parse_n(text: str) -> int:
    return _int(text, f"invalid int value: {text!r}")


def _parse_range(text: str) -> tuple[int, int]:
    malformed = f"expected LO:HI, got {text!r}"
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(malformed)
    lo, hi = _int(parts[0], malformed), _int(parts[1], malformed)
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


def _ratio(quote: str, none: str) -> Callable[[tuple[int, int] | None], str]:
    """The render of a ratio column: a pair (num, den) with den > 0 as
    str(Fraction(num, den)), through one gcd, between two quotes; None, a
    cell with no value, as none."""

    def render(value: tuple[int, int] | None) -> str:
        if value is None:
            return none
        num, den = value
        g = math.gcd(num, den)
        if g == den:
            return f"{quote}{num // g}{quote}"
        return f"{quote}{num // g}/{den // g}{quote}"

    return render


_truth = {True: "true", False: "false"}.__getitem__

# How a value of each column kind becomes text: in json as json.dumps
# writes it, and in csv and table as the cell.  A ratio is a pair
# (num, den), written p/q, or None where the column has no value.
_JSON = {"int": str, "ratio": _ratio('"', "null"), "bool": _truth, "str": encode_basestring_ascii}
_CELLS = {"int": str, "ratio": _ratio("", ""), "bool": _truth, "str": str}


class _Columns(tuple):
    """A row command's column names, coeffs first, with the renders of the
    others resolved once from their kinds: ``json`` and ``cells``, one a
    column, and ``json_tail``, each json line's template after coeffs."""

    def __new__(cls, **kinds: str) -> _Columns:
        columns = super().__new__(cls, ("coeffs", *kinds))
        columns.json = [*map(_JSON.__getitem__, kinds.values())]
        columns.cells = [*map(_CELLS.__getitem__, kinds.values())]
        columns.json_tail = "".join(map(', "{}": %s'.format, kinds)) + "}\n"
        return columns


# render(value) for a render and its value, with no Python frame of its
# own where the operator module has it (Python 3.11 on).
_call = getattr(operator, "call", lambda render, value: render(value))


def _too_long(err: ValueError) -> BudgetExceededError:
    """From Python 3.11 (and 3.10.7) int refuses to convert a value of more
    digits than the interpreter's limit to text; that limit is a budget
    too."""
    return BudgetExceededError(f"a value is too long to print: {err}")


def _rendered(row: tuple, renders: Sequence[Callable]) -> tuple:
    """The texts of a row's values, each made by its column's render."""
    try:
        return tuple(map(_call, renders, row))
    except ValueError as err:
        raise _too_long(err) from None


def _emit_rows(
    coeffs: tuple[int, ...], rows: Iterator[tuple], columns: _Columns, fmt: str,
    stream: TextIO,
) -> None:
    # The first column is always the command's coeffs, written here; a row
    # holds the other columns, in order, and becomes text only here, each
    # value through its column's render.  Every row command yields at least
    # one row, and each row is written as soon as it is rendered, the first
    # before anything else: so a failure at the first row leaves the output
    # empty, and one further on keeps the json and csv rows written so far.
    if fmt == "json":
        # One object per line, as json.dumps writes it, from one template.
        template = f'{{"coeffs": {list(coeffs)}{columns.json_tail}'
        renders = columns.json
        for row in rows:
            try:
                line = template % tuple(map(_call, renders, row))
            except ValueError as err:
                raise _too_long(err) from None
            stream.write(line)
        return
    lines = map(_rendered, rows, repeat(columns.cells))
    lines = itertools.chain([next(lines)], lines)
    first = ",".join(map(str, coeffs))
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(columns)
        writer.writerows((first, *line) for line in lines)
        return
    lines = [columns, *((first, *line) for line in lines)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        stream.write("  ".join(map(str.ljust, line, widths)).rstrip() + "\n")


def _reads(targets: range, d: int, fill: tuple) -> tuple[Iterator[tuple], range]:
    """For count and bounds: the rows of the targets before the first one d
    divides, each n with ``fill``, and the targets whose count reads the row,
    those d divides from there; every target from a negative first one,
    which raises when it is read."""
    if d == 1:
        return iter(()), targets
    start = targets.start
    first = start if start < 0 else start + -start % d
    gap = range(start, min(first, targets.stop))
    return zip(gap, *map(repeat, fill)), range(first, targets.stop, d)


# The most targets of a span whose bound columns bounds and dhat build at
# once, so a json or csv range holds one run of columns, not a span's.
_RUN = 256


def _runs(spans: Iterator[tuple[int, list[int]]]) -> Iterator[tuple[int, list[int]]]:
    """Each span (m, counts) of ``_RowReader.spans`` as runs of at most
    ``_RUN`` counts, each with its first m."""
    for m, counts in spans:
        for i in range(0, len(counts), _RUN):
            yield m + i, counts[i : i + _RUN]


def _rows(
    targets: range, m: int, d: int, columns: Sequence, fill: tuple | None = None
) -> Iterator[tuple]:
    """The rows (n, *values) of the targets that a span of columns answers:
    the columns hold the values at m, m + 1, ..., the first as a list, and
    target n reads entry n // d - m, or, given ``fill``, takes the fill
    unless d divides n."""
    if d == 1:
        return zip(range(m, m + len(columns[0])), *columns)
    span = range(max(targets.start, d * m), min(targets.stop, d * (m + len(columns[0]))))
    entries = list(zip(*columns))
    if fill is None:
        return ((n, *entries[n // d - m]) for n in span)
    return ((n, *(fill if n % d else entries[n // d - m])) for n in span)


def _count_rows(args: argparse.Namespace) -> Iterator[tuple]:
    coeffs = args.coeffs
    targets = _targets(args)
    if args.method == "recursion":
        # A target d = gcd(a) does not divide has no solutions and no read.
        reader = _RowReader(coeffs)
        d = reader.gcd
        fill = (0, "recursion")
        before, reads = _reads(targets, d, fill)
        yield from before
        for m, counts in reader.spans(reads):
            yield from _rows(targets, m, d, (counts, repeat("recursion")), fill)
        return
    # Every target of the command draws on one oracle node budget.
    budget = _OracleBudget()
    for n in targets:
        if args.method == "oracle":
            result = oracle_count(coeffs, n, budget)
        else:
            if len(coeffs) != 2:
                raise NotApplicableError("the closed form applies to pairs only")
            result = popoviciu(coeffs[0], coeffs[1], n)
        yield n, result.value, result.method


def _bounds_rows(args: argparse.Namespace) -> Iterator[tuple]:
    # The sandwich bounds every target that d = gcd(a) divides, a span of
    # them at a time.  Each bound is an integer numerator over one of the
    # sandwich's denominators, which the sandwich compares with the count
    # and the writer prints.
    coeffs = args.coeffs
    targets = _targets(args)
    reader = _RowReader(coeffs)
    d = reader.gcd
    # No solutions and no meaningful bounds at a target d does not divide.
    fill = (0, None, None, None, False, True)
    before, reads = _reads(targets, d, fill)
    yield from before
    sandwich = None
    for m, counts in _runs(reader.spans(reads)):
        if sandwich is None:
            # Prepared at the first target d divides, where a single
            # coefficient is refused under the tuple as given.
            sandwich = _Sandwich.of(coeffs)
            lower_den, series_den, upper_den = sandwich.denominators
        values = sandwich.numerators(d * m, d * (m + len(counts) - 1))
        if len(counts) == 1 == d:
            # One target, the row of a single --n: building it from the one
            # entry of each column costs less than building the columns.
            (lower,), (series,), (upper,) = values
            (ok,) = sandwich.contains(counts, ([lower], [series], [upper]))
            yield (
                m, counts[0], (lower, lower_den),
                None if series is None else (series, series_den),
                (upper, upper_den), series is not None, ok,
            )
            continue
        lower, series, upper = values = [*map(list, values)]
        columns = (
            counts, zip(lower, repeat(lower_den)),
            [None if s is None else (s, series_den) for s in series],
            zip(upper, repeat(upper_den)), map(is_not, series, repeat(None)),
            sandwich.contains(counts, values),
        )
        yield from _rows(targets, m, d, columns, fill)


def _frobenius_rows(args: argparse.Namespace) -> Iterator[tuple]:
    report = bound_frobenius(args.coeffs)
    yield report.g, report.brauer_upper, None, None


def _bf_rows(args: argparse.Namespace) -> Iterator[tuple]:
    if args.offset < 0:
        raise ValueError(f"offset must be >= 0, got {args.offset}")
    if 1 <= args.ell <= args.m:
        value = bf_explicit(args.coeffs, args.offset, args.m)[args.ell]
    else:
        # The triangle's edges read no coefficient: 0 off it, 1 at l = 0.
        value = Fraction(1 if args.ell == 0 <= args.m else 0)
    yield args.offset, args.m, args.ell, (value.numerator, value.denominator)


def _dhat_rows(args: argparse.Namespace) -> Iterator[tuple]:
    targets = _targets(args)
    chain = _Sandwich.relaxed(args.coeffs)
    reader = _RowReader(args.coeffs)
    d = reader.gcd
    lower_den, middle_den, upper_den = chain.denominators
    for m, counts in _runs(reader.spans(targets)):
        # The relaxed count at m, then a running sum over the run.
        exact = list(accumulate(islice(counts, 1, None), initial=reader.relaxed(d * m)))
        values = chain.numerators(d * m, d * (m + len(counts) - 1))
        if len(exact) == 1 == d:
            # One target, as in bounds.
            (lower,), (middle,), (upper,) = values
            (ok,) = chain.contains(exact, ([lower], [middle], [upper]))
            yield m, exact[0], (lower, lower_den), (middle, middle_den), (upper, upper_den), ok
            continue
        lower, middle, upper = values = [*map(list, values)]
        columns = (
            exact, zip(lower, repeat(lower_den)), zip(middle, repeat(middle_den)),
            zip(upper, repeat(upper_den)), chain.contains(exact, values),
        )
        yield from _rows(targets, m, d, columns)


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
    # `rows`, its row generator, and `columns`, the names it writes with the
    # kind of each after coeffs: int, ratio, bool or str.
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="row output format (json writes one object per line)",
    )
    rows.add_argument("--out", metavar="PATH", help="write output to a file")
    rows.add_argument("--coeffs", type=_parse_coeffs, required=True)
    # count, bounds and dhat: at one target or a range of them.
    targets = argparse.ArgumentParser(add_help=False, parents=[rows])
    group = targets.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_parse_n)
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
    p.set_defaults(rows=_count_rows, columns=_Columns(n="int", value="int", method="str"))

    p = sub.add_parser(
        "bounds", parents=[targets], help="two-sided bounds next to the exact count"
    )
    p.set_defaults(
        rows=_bounds_rows,
        columns=_Columns(
            n="int", exact="int", lower_a="ratio", lower_b="ratio", upper_a="ratio",
            applicable="bool", ok="bool",
        ),
    )

    p = sub.add_parser(
        "frobenius", parents=[rows], help="Frobenius number with certified enclosures"
    )
    # The sandwich never certifies a root bound, so the last two columns are
    # always empty; they stay so that the output keeps its shape.
    p.set_defaults(
        rows=_frobenius_rows,
        columns=_Columns(
            g="int", brauer_upper="int", root_lower_1="ratio", root_lower_2="ratio"
        ),
    )

    p = sub.add_parser(
        "bf", parents=[rows], help="triangular bound weights [[m, l]] at an offset"
    )
    p.add_argument("-r", "--offset", type=int, default=0)
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("-l", "--ell", type=int, required=True, dest="ell")
    p.set_defaults(rows=_bf_rows, columns=_Columns(r="int", m="int", ell="int", value="ratio"))

    p = sub.add_parser(
        "dhat", parents=[targets], help="relaxed count (sum <= n) with its bound chain"
    )
    p.set_defaults(
        rows=_dhat_rows,
        columns=_Columns(
            n="int", exact="int", lower="ratio", middle="ratio", upper="ratio", ok="bool"
        ),
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


def _plain_forms(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """For each subcommand of ``parser`` whose options all store one value,
    the table its plain form is read with: its actions by option string, the
    Namespace contents of a call that gives none of them, its required
    actions, and its mutually exclusive groups with whether each is required.
    A subcommand with any other action is left out, and so left to argparse,
    as is one with a str default that argparse would pass through its type."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    forms = {}
    for name, sub in commands.choices.items():
        options, defaults, required = {}, {commands.dest: name}, set()
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue  # -h and --help are not in the table
            if (
                type(action) is not argparse._StoreAction
                or action.nargs is not None
                or not action.option_strings
                or isinstance(action.default, str) and action.type is not None
            ):
                break
            options.update(dict.fromkeys(action.option_strings, action))
            if action.default is not argparse.SUPPRESS:
                defaults[action.dest] = action.default
            if action.required:
                required.add(action)
        else:
            for dest, value in sub._defaults.items():
                defaults.setdefault(dest, value)
            groups = [(g._group_actions, g.required) for g in sub._mutually_exclusive_groups]
            forms[name] = options, defaults, required, groups
    return forms


# One parser per process: argparse keeps each parse's state in its own
# Namespace and locals, so every call of main shares this one.
_PARSER = build_parser()
_PLAIN_FORMS = _plain_forms(_PARSER)


def _plain_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace ``_PARSER.parse_args(argv)`` returns, for an argv of the
    plain form that argparse accepts; None for every other argv."""
    form = _PLAIN_FORMS.get(argv[0]) if argv else None
    if form is None or not len(argv) % 2:
        return None
    options, defaults, required, groups = form
    given = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        action = options.get(option)
        if action is None or action in given or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if not required <= given.keys():
        return None
    for group, group_required in groups:
        # As argparse counts them: an option given its default is not present.
        present = sum(given.get(a, a.default) is not a.default for a in group)
        if present > 1 or group_required and not present:
            return None
    args = argparse.Namespace()
    vars(args).update(defaults, **{action.dest: value for action, value in given.items()})
    return args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = _PARSER.parse_args(argv)
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as err:
        print(f"error: cannot write --out {args.out!r}: {err.strerror}", file=sys.stderr)
        return 2
    with out as stream:
        try:
            if args.command == "verify":
                return _cmd_verify(args, stream)
            _emit_rows(args.coeffs, args.rows(args), args.columns, args.format, stream)
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
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
