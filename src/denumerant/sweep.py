"""Seeded randomized verification sweeps over the counts and the bounds.

Instances come from a splitmix-style 64-bit generator so that any
implementation, in any language, can reproduce the exact same stream; the
constants and the per-suite draw order are documented in the README.  For a
fixed configuration the report is deterministic in every field except
``wall_time_s``.

A failure names the relation it broke and prints both sides exactly.  An
ordered relation is named ``a <= b`` after its two sides, and every one is
tested as a link of a chain of named values (``_unordered``), which reports
the first link out of order.

Failing instances are minimized before they are reported: first the target
n is halved and then bisected toward 0, then each coefficient greedily
toward 1, keeping only candidates that still fail with the same relation.
Suites run sequentially here; a parallel runner is free to fan instances
out as long as it merges failures back in instance-index order.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import compress, pairwise
from typing import Callable, Iterator

from .bfnum import _elementary, bf_recursive
from .bounds import (
    BoundReport,
    _coprime_sandwich,
    bound_sequences,
    inequality_a,
    prefix_sum_count,
    relaxed_count_chain,
)
from .core import (
    BudgetExceededError,
    IndexRangeError,
    NotApplicableError,
    NotCoprimeError,
    TooShortTupleError,
)
from .exact import (
    _RowReader,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
)
from .frobenius import _residue_table, bound_frobenius
from .powersum import _enclosure, _estimates

_MASK64 = (1 << 64) - 1

# The most trials one sweep may run, checked before the first draw.  It caps
# the time of one run at the default k range: on a 2-core x86-64 host, at
# this cap and the other defaults, the slowest suite (asymptotic, two DP rows
# per tuple) took 4 to 4.5 s at 92 MB and the next (bf-identities) 1.0 to
# 1.25 s.  No budget bounds the tuple length: asymptotic at --k-range
# 2000:2000 took 8.4 s for 2 trials there, about 11 hours at this cap.
VERIFY_MAX_TRIALS = 10_000


class SplitMix64:
    """The standard splitmix64 stream, reimplemented so ports can match it.

    step:  state += 0x9E3779B97F4A7C15 (mod 2^64)
           z = state
           z = (z XOR z >> 30) * 0xBF58476D1CE4E5B9 (mod 2^64)
           z = (z XOR z >> 27) * 0x94D049BB133111EB (mod 2^64)
           output z XOR z >> 31
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi], as lo + next_u64() mod (hi - lo + 1)."""
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep depends on; equal configs give equal reports."""

    suite: str
    seed: int = 1
    trials: int = 200
    k_range: tuple[int, int] = (2, 4)
    max_coeff: int = 12
    n_max: int = 120

    def __post_init__(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; pick from {SUITE_NAMES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = self.k_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad k range {self.k_range}")
        # _draw_coprime_tuple redraws until k >= 2 comes up: forever if k_hi < 2.
        spec = _SUITES[self.suite]
        if spec is not None and spec[0] is _draw_coprime_tuple and hi < 2:
            raise ValueError(f"suite {self.suite} needs tuples with k >= 2")
        if self.max_coeff < 1:
            raise ValueError("max_coeff must be >= 1")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")


@dataclass(frozen=True)
class Failure:
    """One violated relation, with both sides rendered exactly."""

    instance: dict
    relation: str
    lhs: str
    rhs: str


@dataclass
class VerificationReport:
    suite: str
    config: SweepConfig
    instances: int
    failures: list[Failure]
    wall_time_s: float
    # Instances whose check raised a skippable domain error, by exception
    # name.  Like wall_time_s it stays out of the JSON report, whose bytes
    # are fixed for a given configuration.
    skipped: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        # Tuples stay tuples here; json.dumps writes them as lists.
        report = asdict(self)
        del report["skipped"]
        return report

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Instance generation.  Draw order is part of the reproducibility contract:
# k first (where a suite draws it), then the coefficients left to right,
# then n (where a suite uses one).
# ---------------------------------------------------------------------------


def _draw_tuple(rng: SplitMix64, cfg: SweepConfig) -> tuple[int, ...]:
    k = rng.uniform(cfg.k_range[0], cfg.k_range[1])
    return tuple(rng.uniform(1, cfg.max_coeff) for _ in range(k))


def _draw_coprime_tuple(rng: SplitMix64, cfg: SweepConfig) -> tuple[int, ...]:
    # Tuples are drawn, then divided by their gcd; draws that land on a
    # single coefficient are discarded and redrawn.
    while True:
        k = rng.uniform(cfg.k_range[0], cfg.k_range[1])
        if k < 2:
            continue
        coeffs = tuple(rng.uniform(1, cfg.max_coeff) for _ in range(k))
        d = math.gcd(*coeffs)
        return tuple(c // d for c in coeffs)


def _draw_pair(rng: SplitMix64, cfg: SweepConfig) -> tuple[int, int]:
    a1 = rng.uniform(1, cfg.max_coeff)
    a2 = rng.uniform(1, cfg.max_coeff)
    d = math.gcd(a1, a2)
    return (a1 // d, a2 // d)


def _draw_n(rng: SplitMix64, cfg: SweepConfig) -> int:
    return rng.uniform(0, cfg.n_max)


# ---------------------------------------------------------------------------
# Checkers.  Each takes an instance dict and returns the first violated
# relation as a Failure, or None.  Instances outside a checker's domain
# (for example a shrink candidate that lost coprimality) return None via
# the _attempt wrapper, and any other exception a check raises becomes a
# Failure there.
# ---------------------------------------------------------------------------

_SKIPPABLE = (
    NotCoprimeError,
    NotApplicableError,
    TooShortTupleError,
    IndexRangeError,
    BudgetExceededError,
)


def _attempt(
    check: Callable[[dict], Failure | None],
    instance: dict,
    skipped: Counter[str] | None = None,
) -> Failure | None:
    """Run one check; an instance outside its domain counts as no failure,
    and its exception name is tallied in ``skipped`` when one is given.  Any
    other exception is a failure of the instance, named by its type and
    message, so that it is shrunk and reported like a broken relation."""
    try:
        return check(instance)
    except _SKIPPABLE as err:
        if skipped is not None:
            skipped[type(err).__name__] += 1
        return None
    except Exception as err:
        return _fail(instance, "the check raises no exception", type(err).__name__, err)


def _fail(instance: dict, relation: str, lhs: object, rhs: object) -> Failure:
    # str renders each side exactly, a Fraction over 1 as a bare integer.
    return Failure(instance, relation, str(lhs), str(rhs))


def _unordered(instance: dict, den: int, *chain: tuple[str, object]) -> Failure | None:
    """The first adjacent pair of the (name, value) ``chain`` out of order, as
    a failure of ``a <= b`` with each side over ``den``, or None.  Over 1 the
    sides are printed as they are, so a residue table's inf stays one."""
    for (a, va), (b, vb) in pairwise(chain):
        if not va <= vb:
            sides = (va, vb) if den == 1 else (Fraction(va, den), Fraction(vb, den))
            return _fail(instance, f"{a} <= {b}", *sides)
    return None


def _check_oracle_eq(instance: dict) -> Failure | None:
    coeffs, n = instance["coeffs"], instance["n"]
    fast = denumerant(coeffs, n).value
    brute = oracle_count(coeffs, n).value
    if fast != brute:
        return _fail(instance, "denumerant == oracle_count", fast, brute)
    if len(coeffs) == 2:
        return _check_popoviciu(instance, brute)
    return None


def _check_popoviciu(instance: dict, brute: int | None = None) -> Failure | None:
    """The closed form against the oracle on a pair; ``brute`` is the
    oracle's count when the caller already has it."""
    coeffs, n = instance["coeffs"], instance["n"]
    if math.gcd(*coeffs) != 1:
        return None
    closed = popoviciu(coeffs[0], coeffs[1], n).value
    if brute is None:
        brute = oracle_count(coeffs, n).value
    if closed != brute:
        return _fail(instance, "popoviciu == oracle_count", closed, brute)
    return None


def _check_inequality_a(instance: dict) -> Failure | None:
    return _sandwich_failure(instance, inequality_a(instance["coeffs"], instance["n"]))


def _sandwich_failure(instance: dict, report: BoundReport) -> Failure | None:
    """Check the sandwich ``report`` at the instance's n against the count."""
    exact = ("exact", denumerant(instance["coeffs"], instance["n"]).value)
    lower = [("lower_a", report.lower_a)] if report.applicable_lower else []
    return _unordered(instance, 1, *lower, exact, ("upper_a", report.upper_a))


def _check_inequality_b(instance: dict) -> Failure | None:
    coeffs, n = instance["coeffs"], instance["n"]
    sandwich = _coprime_sandwich(coeffs)
    (lower,), (series,), _ = sandwich.numerators(n, n)
    if series is None:
        return None
    exact = denumerant(coeffs, n).value
    # The chain over lower_b's denominator, lower_a's times 2^(k-2).  Its
    # Fractions are formed for a failure only.
    den = sandwich.denominators[1]
    scaled_lower = lower << (sandwich.power - 1)
    chain = ("lower_a", scaled_lower), ("lower_b", series), ("exact", exact * den)
    if failure := _unordered(instance, den, *chain):
        return failure
    if len(coeffs) == 2 and scaled_lower != series:
        lower_a, lower_b = Fraction(scaled_lower, den), Fraction(series, den)
        return _fail(instance, "lower_a == lower_b for pairs", lower_a, lower_b)
    return None


def _check_relaxed(instance: dict) -> Failure | None:
    coeffs, n = instance["coeffs"], instance["n"]
    exact = extended_count(coeffs, n).value
    prefix = prefix_sum_count(coeffs, n)
    if exact != prefix:
        return _fail(
            instance, "extended_count == prefix sum of denumerant", exact, prefix
        )
    lower, refined, upper = relaxed_count_chain(coeffs, n)
    return _unordered(
        instance, 1,
        ("lower", lower), ("refined lower", refined), ("exact", exact), ("upper", upper),
    )


def _certify_residue_table(instance: dict, table: list) -> Failure | None:
    """The first relation that fails, or None when ``table`` is the residue
    table of the instance's tuple: N[r] the shortest-path distance from 0 to
    r on the residues mod a_1 = len(table), an edge r -> r + a_j weighing a_j.
    N[0] = 0 and no edge shortening an entry put N at most that distance, and
    a tight edge into every other entry spells a path from 0 of length N[r]."""
    base = len(table)
    if table[0] != 0:
        return _fail(dict(instance, r=0), "N[0] == 0", table[0], 0)
    shortest = [math.inf] * base
    for coeff in instance["coeffs"]:
        # via[s] = N[r] + a_j along the edge r -> s = (r + a_j) mod a_1.
        cut = base - coeff % base
        via = [n + coeff for n in table[cut:] + table[:cut]]
        for s in compress(range(base), map(operator.gt, table, via)):
            inst = dict(instance, r=(s - coeff) % base, a_j=coeff)
            chain = ("N[(r + a_j) mod a_1]", table[s]), ("N[r] + a_j", via[s])
            return _unordered(inst, 1, *chain)
        shortest = list(map(min, shortest, via))
    # No edge shortens an entry, so a tight one meets the shortest.
    for r in compress(range(1, base), map(operator.ne, table[1:], shortest[1:])):
        relation = "N[r] == N[(r - a_j) mod a_1] + a_j for some j"
        return _fail(dict(instance, r=r), relation, table[r], shortest[r])
    return None


def _check_frobenius(instance: dict) -> Failure | None:
    coeffs = instance["coeffs"]
    report = bound_frobenius(coeffs)
    g = report.g
    # Every value in a window above g must be representable; the window is
    # capped so one degenerate tuple cannot dominate the sweep.  D(g) and
    # the whole window are read from one row: the tuple is coprime, so its
    # cells are D(a, 0..top), and g <= brauer_upper puts g in it.  Only
    # D(max(g, 0)..top) becomes ints.  The row is read first, so an
    # instance whose row is over its budget is skipped before its table is
    # built and certified.  Pairs reach g by Sylvester's formula, triples by
    # the largest top of their Apery boxes and k >= 4 by the table those
    # boxes seed, so the plain round-robin table, which writes no box, is the
    # independent route for every k.
    top = min(g + min(coeffs) + report.brauer_upper, g + 400)
    lo = max(g, 0)
    # A table entry left at infinity makes g, and so top, infinite, with no
    # window to read: the certified table's finite maximum then misses g.
    window = list(_RowReader(coeffs).counts(top, lo)) if 0 <= top < math.inf else []
    table = _residue_table(coeffs)
    if failure := _certify_residue_table(instance, table):
        return failure
    certified = max(table) - len(table)
    if g != certified:
        return _fail(instance, "bound_frobenius(a).g == max(N) - a_1", g, certified)
    if failure := _unordered(instance, 1, ("g", g), ("brauer_upper", report.brauer_upper)):
        return failure
    # The report reads s-_k as an integer; the public sequences build it as
    # a Fraction along the same gcd chain.
    lower_shift = bound_sequences(coeffs).lower_shifts[-1]
    if report.brauer_upper != lower_shift:
        relation = "bound_frobenius(a).brauer_upper == s-_k of bound_sequences(a)"
        return _fail(instance, relation, report.brauer_upper, lower_shift)
    if g >= 0 and window[0] != 0:
        return _fail(instance, "denumerant(a, g) == 0", window[0], 0)
    for value in range(max(g + 1, 0), top + 1):
        if window[value - lo] == 0:
            return _fail(instance, "denumerant(a, n) > 0 for n > g", 0, value)
    return None


def _check_bf_identities(instance: dict) -> Failure | None:
    coeffs = instance["coeffs"]
    k = len(coeffs)
    # Each (tuple, r, m) row of the closed form is read once, as the integers
    # e_l = 2^l [[m, l]], in which the two identities below are linear
    # relations.  Weights are formed for a failure only.
    explicit = functools.cache(_elementary)

    # One run of the recursion per offset r yields its rows m = 0..min(6,
    # k - r), and each is compared with the closed form's row, entries
    # 0 <= l <= m, as p 2^l == e_l q for the weight p / q; off the triangle
    # both routes are 0 by definition and compute nothing.
    for r in range(min(2, k) + 1):
        by_recursion_rows = bf_recursive(coeffs, r, min(6, k - r))
        for m, by_recursion_row in enumerate(by_recursion_rows):
            rows = zip(by_recursion_row, explicit(coeffs, r, m), strict=True)
            for ell, (by_recursion, e) in enumerate(rows):
                if by_recursion.numerator << ell != e * by_recursion.denominator:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "bf_recursive == bf_explicit",
                        by_recursion, Fraction(e, 1 << ell),
                    )
                if not e > 0:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "[[m, l]] > 0 for 0 <= l <= m", Fraction(e, 1 << ell), 0
                    )
    # Offset shift: [[m, l]]_{r-1} - [m == 0] equals
    # [[m-1, l]]_r + (a_r / 2) [[m-1, l-1]]_r.  Times 2^l (the [m == 0]
    # term lives at l = 0 only): e_l(r-1, m) - [m == 0] equals
    # e_l(r, m-1) + a_r e_{l-1}(r, m-1).  A failure reports both sides
    # divided back by 2^l.
    for r in range(1, min(2, k) + 1):
        for m in range(0, min(6, k - r + 1) + 1):
            left = explicit(coeffs, r - 1, m)
            # Row m - 1 padded with its zero neighbours l = -1 and l = m.
            right = (0, *explicit(coeffs, r, m - 1), 0)
            for ell in range(m + 1):
                lhs = left[ell] - (1 if m == 0 else 0)
                rhs = right[ell + 1] + coeffs[r - 1] * right[ell]
                if lhs != rhs:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "offset shift identity",
                        Fraction(lhs, 1 << ell), Fraction(rhs, 1 << ell),
                    )
    # Dividing the first m+1 coefficients by their gcd can only shrink the
    # numbers, by at most a factor d^l; compared as e_l <= d^l e_l(reduced).
    for r in range(min(2, k) + 1):
        for m in range(0, min(6, k - r, k - 1) + 1):
            d = math.gcd(*coeffs[: m + 1])
            scaled = tuple(c // d for c in coeffs[: m + 1]) + coeffs[m + 1 :]
            reduced = explicit(scaled, r, m)
            for ell, original in enumerate(explicit(coeffs, r, m)):
                bound = d**ell * reduced[ell]
                if not original <= bound:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    chain = ("[[m, l]]", original), ("d^l [[m, l]] of reduced", bound)
                    return _unordered(inst, 1 << ell, *chain)
    return None


_ASYMPTOTIC_POINTS = (1_000, 10_000)


def _check_asymptotic(instance: dict) -> Failure | None:
    # The ratio bounds (1 -+ s/n)^(k-1) are this sandwich over n^(k-1)/((k-1)! prod a).
    sandwich = _coprime_sandwich(instance["coeffs"])
    for n in _ASYMPTOTIC_POINTS:
        if found := _sandwich_failure(dict(instance, n=n), sandwich.at(n)):
            return found
    return None


# ---------------------------------------------------------------------------
# Shrinking and suite runners.
# ---------------------------------------------------------------------------


def shrink_failure(
    instance: dict, check: Callable[[dict], Failure | None], relation: str
) -> dict:
    """Minimize a failing instance, keeping candidates that fail the same
    relation: first n toward 0 in O(log n) checks, then each coefficient
    greedily toward 1 (candidates 1, c/2, c-1).

    n drops to 0 if that fails; otherwise it is halved while the half still
    fails, and once n // 2 passes, bisection between the two finds a
    failing n whose n - 1 passes."""

    def still_fails(candidate: dict) -> bool:
        found = _attempt(check, candidate)
        return found is not None and found.relation == relation

    def fails_at(n: int) -> bool:
        return still_fails(dict(current, n=n))

    def smaller_coeffs(current: dict) -> Iterator[dict]:
        coeffs = current["coeffs"]
        for pos, value in enumerate(coeffs):
            for smaller in (1, value // 2, value - 1):
                if 1 <= smaller < value:
                    yield dict(
                        current, coeffs=coeffs[:pos] + (smaller,) + coeffs[pos + 1 :]
                    )

    current = dict(instance)
    if current.get("n", 0) > 0:
        fails = 0 if fails_at(0) else current["n"]
        while fails > 1 and fails_at(fails // 2):
            fails //= 2
        # Does not fail: it is 0, checked first, or the half that passed.
        passes = fails // 2
        while fails - passes > 1:
            middle = (passes + fails) // 2
            passes, fails = (passes, middle) if fails_at(middle) else (middle, fails)
        current["n"] = fails
    # Take the first smaller tuple that still fails, until none does.
    while smaller := next(filter(still_fails, smaller_coeffs(current)), None):
        current = smaller
    return current


def _run_drawn(
    cfg: SweepConfig,
    draw: Callable[[SplitMix64, SweepConfig], tuple[int, ...]],
    uses_n: bool,
    check: Callable[[dict], Failure | None],
    skipped: Counter[str],
) -> tuple[int, list[Failure]]:
    rng = SplitMix64(cfg.seed)
    failures: list[Failure] = []
    for _ in range(cfg.trials):
        instance = {"coeffs": draw(rng, cfg)}
        if uses_n:
            instance["n"] = _draw_n(rng, cfg)
        found = _attempt(check, instance, skipped)
        if found is not None:
            minimal = shrink_failure(instance, check, found.relation)
            final = _attempt(check, minimal) or found
            failures.append(final)
    return cfg.trials, failures


# The grid's last j: x + c = j/16 for j = 0..320.
_GRID_TOP = 320


def _chain_sums(terms: list[int], s: int) -> list[int]:
    """Running sums of ``terms`` along the residue chains j mod 16, at the
    shift c = s/8: entry j sums terms[j - 16 step] over the [x] + 1 steps of
    x = (j - 2s)/16, so it carries entry j - 16 exactly when [x] >= 1, that
    is when j - 16 >= 2s."""
    sums: list[int] = []
    for j, term in enumerate(terms):
        sums.append(term + sums[j - 16] if j - 16 >= 2 * s else term)
    return sums


def _run_powersum(cfg: SweepConfig) -> tuple[int, list[Failure]]:
    """A fixed grid, not a random draw: the seed does not change this suite.

    Exponents 2..8, shifts c = s/8 for s = 0..4 (so 0 <= c <= 1/2),
    x = -c + j/16 for j = 0..320, plus the step identity
    f_k(n+1) - f_k(n) = (n+1+c)^k on integer points.

    The grid is walked in integers: x + c = j/16 and [x] = trunc((j - 2s)/16),
    where -1/2 <= x < 0 truncates to 0.  The estimates depend on (j, k)
    only, so ``_estimates`` is read once per (j, k) for all five shifts.
    The sum at j is j^k plus, when [x] >= 1, the sum at j - 16: each shift
    keeps running sums along the residue chains j mod 16 (``_chain_sums``).
    A carry taken at the wrong point adds up along its chain, so the last
    point of each chain (j = 305..320) compares the running sum with
    ``_enclosure``'s term-by-term one, first, under its own relation.  The
    step identity takes x + c = (8n + s)/8 for n = 0..21; each f_k there is
    summed term by term once, and read as f_k(n + 1) and as the next f_k(n).
    ``Fraction`` values are formed for a failure only.
    """
    failures: list[Failure] = []
    instances = 0
    for k in range(2, 9):
        estimates = [_estimates(j, 16, k) for j in range(_GRID_TOP + 1)]
        # f_k * L = (L / 16^k) sum_step (j - 16 step)^k, with L fixed by k.
        unit = estimates[0][0] // 16**k
        terms = [unit * j**k for j in range(_GRID_TOP + 1)]
        for s in range(5):
            for j, total in enumerate(_chain_sums(terms, s)):
                instances += 1
                scale, crude, refined, upper, cap = estimates[j]
                # At a chain end j > 2s, so [x] + 1 = (j - 2s) // 16 + 1.
                ends = j > _GRID_TOP - 16
                slow = _enclosure(j, 16, k, (j - 2 * s) // 16 + 1)[1] if ends else total
                if total == slow and crude <= refined <= total <= upper and total <= cap:
                    continue
                c = Fraction(s, 8)
                inst = {"k": k, "c": str(c), "x": str(Fraction(j, 16) - c)}
                if total != slow:
                    relation = "walked power sum == term-by-term sum"
                    sides = Fraction(total, scale), Fraction(slow, scale)
                    failure = _fail(inst, relation, *sides)
                else:
                    summed = ("power sum", total)
                    failure = _unordered(
                        inst, scale, ("crude lower", crude), ("refined lower", refined),
                        summed, ("upper", upper),
                    ) or _unordered(inst, scale, summed, ("refined upper", cap))
                failures.append(failure)
    for k in range(2, 9):
        for s in range(5):
            # f_k at n = 0..21 share d = 8, so they share the scale L.
            kernel = [_enclosure(8 * n + s, 8, k, n + 1) for n in range(22)]
            scale = kernel[0][0]
            for n in range(0, 21):
                instances += 1
                after = 8 * (n + 1) + s
                step = kernel[n + 1][1] - kernel[n][1]
                # (f_k(n+1) - f_k(n)) * L against (after / 8)^k * L.
                if step * 8**k != scale * after**k:
                    c = Fraction(s, 8)
                    inst = {"k": k, "c": str(c), "n": n}
                    failures.append(
                        _fail(
                            inst,
                            "f(n+1) - f(n) == (n+1+c)^k",
                            Fraction(step, scale),
                            (n + 1 + c) ** k,
                        )
                    )
    return instances, failures


# name: (coefficient draw, whether n is drawn after it, check), or None for
# powersum, which walks its fixed grid.  SUITE_NAMES keeps this order.
_SUITES: dict[str, tuple[Callable, bool, Callable[[dict], Failure | None]] | None] = {
    "oracle-eq": (_draw_tuple, True, _check_oracle_eq),
    "popoviciu": (_draw_pair, True, _check_popoviciu),
    "inequality-a": (_draw_coprime_tuple, True, _check_inequality_a),
    "inequality-b": (_draw_coprime_tuple, True, _check_inequality_b),
    "powersum": None,
    "dhat": (_draw_tuple, True, _check_relaxed),
    "frobenius": (_draw_coprime_tuple, False, _check_frobenius),
    "bf-identities": (_draw_tuple, False, _check_bf_identities),
    "asymptotic": (_draw_coprime_tuple, False, _check_asymptotic),
}
SUITE_NAMES = tuple(_SUITES)


def run_verify(cfg: SweepConfig) -> VerificationReport:
    """Run one suite to completion and return its deterministic report."""
    if cfg.trials > VERIFY_MAX_TRIALS:
        raise BudgetExceededError(
            f"{cfg.trials} trials are over the cap of {VERIFY_MAX_TRIALS}"
        )
    started = time.perf_counter()
    skipped: Counter[str] = Counter()
    spec = _SUITES[cfg.suite]
    if spec is None:
        instances, failures = _run_powersum(cfg)
    else:
        instances, failures = _run_drawn(cfg, *spec, skipped)
    elapsed = time.perf_counter() - started
    return VerificationReport(
        suite=cfg.suite,
        config=cfg,
        instances=instances,
        failures=failures,
        wall_time_s=elapsed,
        skipped=dict(sorted(skipped.items())),
    )
