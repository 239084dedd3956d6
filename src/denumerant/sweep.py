"""Seeded randomized verification sweeps over the counts and the bounds.

Instances come from a splitmix-style 64-bit generator so that any
implementation, in any language, can reproduce the exact same stream; the
constants and the per-suite draw order are documented in the README.  For a
fixed configuration the report is deterministic in every field except
``wall_time_s``.

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
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .bfnum import bf_explicit, bf_recursive
from .bounds import (
    BoundReport,
    _coprime_sandwich,
    inequality_a,
    prefix_sum_count,
    relaxed_count_chain,
)
from .core import (
    BudgetExceededError,
    IndexRangeError,
    InvariantViolationError,
    NotApplicableError,
    NotCoprimeError,
    TooShortTupleError,
)
from .exact import (
    _reduced_counts,
    denumerant,
    extended_count,
    oracle_count,
    popoviciu,
)
from .frobenius import _frobenius_sieve, bound_frobenius
from .powersum import _enclosure

_MASK64 = (1 << 64) - 1

# The most trials one sweep may run, checked before the first draw.  It caps
# the time of one run: on a 2-core x86-64 host, at this cap and the other
# defaults, the slowest suite (asymptotic, two DP rows per tuple) took 21 s
# and the next (bf-identities) 6 s.
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
# the _attempt wrapper.
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
    and its exception name is tallied in ``skipped`` when one is given."""
    try:
        return check(instance)
    except _SKIPPABLE as err:
        if skipped is not None:
            skipped[type(err).__name__] += 1
        return None


def _fail(instance: dict, relation: str, lhs: object, rhs: object) -> Failure:
    # str renders each side exactly, a Fraction over 1 as a bare integer.
    return Failure(instance, relation, str(lhs), str(rhs))


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
    try:
        closed = popoviciu(coeffs[0], coeffs[1], n).value
    except InvariantViolationError as err:
        return _fail(instance, "popoviciu returns a count", err, "")
    if brute is None:
        brute = oracle_count(coeffs, n).value
    if closed != brute:
        return _fail(instance, "popoviciu == oracle_count", closed, brute)
    return None


def _check_inequality_a(instance: dict) -> Failure | None:
    return _sandwich_failure(instance, inequality_a(instance["coeffs"], instance["n"]))


def _sandwich_failure(instance: dict, report: BoundReport) -> Failure | None:
    """Check the sandwich ``report`` at the instance's n against the count."""
    exact = denumerant(instance["coeffs"], instance["n"]).value
    if not exact <= report.upper_a:
        return _fail(instance, "exact <= upper_a", exact, report.upper_a)
    if report.applicable_lower and not report.lower_a <= exact:
        return _fail(instance, "lower_a <= exact", report.lower_a, exact)
    return None


def _check_inequality_b(instance: dict) -> Failure | None:
    coeffs, n = instance["coeffs"], instance["n"]
    sandwich = _coprime_sandwich(coeffs)
    report = sandwich.at(n)
    if not report.applicable_lower:
        return None
    exact = denumerant(coeffs, n).value
    lower_a = report.lower_a
    lower_b = sandwich.series_lower(n)
    if not lower_a <= lower_b:
        return _fail(instance, "lower_a <= lower_b", lower_a, lower_b)
    if not lower_b <= exact:
        return _fail(instance, "lower_b <= exact", lower_b, exact)
    if len(coeffs) == 2 and lower_a != lower_b:
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
    if not lower <= refined:
        return _fail(instance, "lower <= refined lower", lower, refined)
    if not refined <= exact:
        return _fail(instance, "refined lower <= exact", refined, exact)
    if not exact <= upper:
        return _fail(instance, "exact <= upper", exact, upper)
    return None


def _check_frobenius(instance: dict) -> Failure | None:
    coeffs = instance["coeffs"]
    report = bound_frobenius(coeffs)
    g = report.g
    sieved = _frobenius_sieve(coeffs)
    if g != sieved:
        return _fail(instance, "bound_frobenius(a).g == _frobenius_sieve(a)", g, sieved)
    if not g <= report.brauer_upper:
        return _fail(instance, "g <= brauer_upper", g, report.brauer_upper)
    # Every value in a window above g must be representable; the window is
    # capped so one degenerate tuple cannot dominate the sweep.  D(g) and
    # the whole window come from one row: the tuple is coprime, so the
    # reduced counts are D(a, 0..top), and g <= brauer_upper puts g in it.
    top = min(g + min(coeffs) + report.brauer_upper, g + 400)
    if top < 0:
        return None
    counts = _reduced_counts(coeffs, top)
    if g >= 0 and counts[g] != 0:
        return _fail(instance, "denumerant(a, g) == 0", counts[g], 0)
    for value in range(max(g + 1, 0), top + 1):
        if counts[value] == 0:
            return _fail(instance, "denumerant(a, n) > 0 for n > g", 0, value)
    return None


def _check_bf_identities(instance: dict) -> Failure | None:
    coeffs = instance["coeffs"]
    k = len(coeffs)
    # Each route evaluates each (tuple, r, m) row once.  The relations
    # compare the entries 0 <= l <= m; off the triangle both routes are 0
    # by definition and compute nothing.
    explicit = functools.cache(bf_explicit)
    for r in range(min(2, k) + 1):
        for m in range(0, min(6, k - r) + 1):
            rows = zip(bf_recursive(coeffs, r, m), explicit(coeffs, r, m), strict=True)
            for ell, (by_recursion, by_formula) in enumerate(rows):
                if by_recursion != by_formula:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "bf_recursive == bf_explicit", by_recursion, by_formula
                    )
                if not by_formula > 0:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(inst, "[[m, l]] > 0 for 0 <= l <= m", by_formula, 0)
    # Offset shift: [[m, l]]_{r-1} - [m == 0] equals
    # [[m-1, l]]_r + (a_r / 2) [[m-1, l-1]]_r.
    for r in range(1, min(2, k) + 1):
        for m in range(0, min(6, k - r + 1) + 1):
            left = explicit(coeffs, r - 1, m)
            # Row m - 1 padded with its zero neighbours l = -1 and l = m.
            right = (0, *explicit(coeffs, r, m - 1), 0)
            for ell in range(m + 1):
                lhs = left[ell] - (1 if m == 0 else 0)
                rhs = right[ell + 1] + Fraction(coeffs[r - 1], 2) * right[ell]
                if lhs != rhs:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(inst, "offset shift identity", lhs, rhs)
    # Dividing the first m+1 coefficients by their gcd can only shrink the
    # numbers, by at most a factor d^l.
    for r in range(min(2, k) + 1):
        for m in range(0, min(6, k - r, k - 1) + 1):
            d = math.gcd(*coeffs[: m + 1])
            scaled = tuple(c // d for c in coeffs[: m + 1]) + coeffs[m + 1 :]
            reduced = explicit(scaled, r, m)
            for ell, original in enumerate(explicit(coeffs, r, m)):
                if not original <= d**ell * reduced[ell]:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "[[m, l]] <= d^l [[m, l]] of reduced", original,
                        d**ell * reduced[ell],
                    )
    return None


_ASYMPTOTIC_POINTS = (1_000, 10_000)


def _check_asymptotic(instance: dict) -> Failure | None:
    # The ratio bounds (1 -+ s/n)^(k-1) are this sandwich over n^(k-1)/((k-1)! prod a).
    sandwich = _coprime_sandwich(instance["coeffs"])
    for n in _ASYMPTOTIC_POINTS:
        found = _sandwich_failure(dict(instance, n=n), sandwich.at(n))
        if found is not None:
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


# The relations behind the first three estimates of ``powersum._enclosure``
# against the sum, in order.
_ENCLOSURE = (
    "crude lower <= refined lower",
    "refined lower <= power sum",
    "power sum <= upper",
)


def _run_powersum(cfg: SweepConfig) -> tuple[int, list[Failure]]:
    """A fixed grid, not a random draw: the seed does not change this suite.

    Exponents 2..8, shifts c = s/8 for s = 0..4 (so 0 <= c <= 1/2),
    x = -c + j/16 for j = 0..320, plus the step identity
    f_k(n+1) - f_k(n) = (n+1+c)^k on integer points.

    The grid is walked in integers: x + c = j/16 and [x] = trunc((j - 2s)/16),
    where -1/2 <= x < 0 truncates to 0.  The step identity takes
    x + c = (8n + s)/8.  ``Fraction`` values are formed for a failure only.
    """
    failures: list[Failure] = []
    instances = 0
    for k in range(2, 9):
        for s in range(5):
            for j in range(0, 321):
                instances += 1
                steps = max(j - 2 * s, 0) // 16 + 1
                scale, total, crude, refined, upper, cap = _enclosure(j, 16, k, steps)
                held = (crude <= refined, refined <= total, total <= upper)
                if all(held) and total <= cap:
                    continue
                c = Fraction(s, 8)
                inst = {"k": k, "c": str(c), "x": str(Fraction(j, 16) - c)}
                if not all(held):
                    failures.append(_fail(inst, _ENCLOSURE[held.index(False)], "", ""))
                else:
                    failures.append(
                        _fail(
                            inst,
                            "power sum <= refined upper",
                            Fraction(total, scale),
                            Fraction(cap, scale),
                        )
                    )
    for k in range(2, 9):
        for s in range(5):
            for n in range(0, 21):
                instances += 1
                # f_k at n and at n + 1 share d = 8, so they share the scale L.
                after = 8 * (n + 1) + s
                scale, total, *_ = _enclosure(after - 8, 8, k, n + 1)
                _, total_after, *_ = _enclosure(after, 8, k, n + 2)
                step = total_after - total
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
