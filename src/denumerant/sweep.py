"""Seeded randomized verification sweeps over the counts and the bounds.

Instances come from a splitmix-style 64-bit generator so that any
implementation, in any language, can reproduce the exact same stream; the
constants and the per-suite draw order are documented in the README.  For a
fixed configuration the report is deterministic in every field except
``wall_time_s``.

Failing instances are minimized before they are reported: first the target
n is shrunk greedily (toward 0), then each coefficient in turn (toward 1),
keeping only candidates that still fail with the same relation.  Suites run
sequentially here; a parallel runner is free to fan instances out as long
as it merges failures back in instance-index order.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .bfnum import BFQuery, bf_explicit, bf_recursive
from .bounds import (
    bound_sequences,
    inequality_a,
    inequality_b_lower,
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
    format_rational,
)
from .exact import denumerant, extended_count, oracle_count, popoviciu
from .frobenius import _frobenius_sieve, bound_frobenius
from .powersum import PowerSumQuery, _sum_bounds, power_sum, refined_upper_bound

_MASK64 = (1 << 64) - 1

SUITE_NAMES = (
    "oracle-eq",
    "popoviciu",
    "inequality-a",
    "inequality-b",
    "powersum",
    "dhat",
    "frobenius",
    "bf-identities",
    "asymptotic",
)

# Suites that only make sense for coprime tuples with at least two entries.
_COPRIME_SUITES = frozenset(
    {"inequality-a", "inequality-b", "frobenius", "asymptotic"}
)


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
        if self.suite in _COPRIME_SUITES and hi < 2:
            raise ValueError(f"suite {self.suite} needs tuples with k >= 2")
        if self.max_coeff < 1:
            raise ValueError("max_coeff must be >= 1")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "k_range": list(self.k_range),
            "max_coeff": self.max_coeff,
            "n_max": self.n_max,
        }


@dataclass(frozen=True)
class Failure:
    """One violated relation, with both sides rendered exactly."""

    instance: dict
    relation: str
    lhs: str
    rhs: str

    def as_dict(self) -> dict:
        safe = {}
        for key, value in self.instance.items():
            safe[key] = list(value) if isinstance(value, tuple) else value
        return {
            "instance": safe,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


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

    def as_dict(self, include_wall_time: bool = True) -> dict:
        report = {
            "suite": self.suite,
            "config": self.config.as_dict(),
            "instances": self.instances,
            "failures": [f.as_dict() for f in self.failures],
        }
        if include_wall_time:
            report["wall_time_s"] = self.wall_time_s
        return report

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(
            self.as_dict(include_wall_time), sort_keys=True, indent=2
        )


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
    def render(value: object) -> str:
        if isinstance(value, (int, Fraction)):
            return format_rational(value)
        return str(value)

    return Failure(instance, relation, render(lhs), render(rhs))


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
    coeffs, n = instance["coeffs"], instance["n"]
    exact = denumerant(coeffs, n).value
    report = inequality_a(coeffs, n, exact)
    if not exact <= report.upper_a:
        return _fail(instance, "exact <= upper_a", exact, report.upper_a)
    if report.applicable_lower and not report.lower_a <= exact:
        return _fail(instance, "lower_a <= exact", report.lower_a, exact)
    return None


def _check_inequality_b(instance: dict) -> Failure | None:
    coeffs, n = instance["coeffs"], instance["n"]
    shift_down = bound_sequences(coeffs).lower_shifts[-1]
    if Fraction(n) < shift_down:
        return None
    exact = denumerant(coeffs, n).value
    lower_a = inequality_a(coeffs, n).lower_a
    lower_b = inequality_b_lower(coeffs, n)
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
    if report.root_lower_1 is not None and not report.root_lower_1 <= g:
        return _fail(instance, "root_lower_1 <= g", report.root_lower_1, g)
    if report.root_lower_2 is not None and not report.root_lower_2 <= g:
        return _fail(instance, "root_lower_2 <= g", report.root_lower_2, g)
    if g >= 0 and denumerant(coeffs, g).value != 0:
        return _fail(instance, "denumerant(a, g) == 0", denumerant(coeffs, g).value, 0)
    # Every value in a window above g must be representable; the window is
    # capped so one degenerate tuple cannot dominate the sweep.
    top = g + min(coeffs) + report.brauer_upper
    for value in range(max(g + 1, 0), min(top, g + 400) + 1):
        if denumerant(coeffs, value).value == 0:
            return _fail(instance, "denumerant(a, n) > 0 for n > g", 0, value)
    return None


def _check_bf_identities(instance: dict) -> Failure | None:
    coeffs = instance["coeffs"]
    k = len(coeffs)
    for r in (0, 1, 2):
        if r > k:
            continue
        for m in range(0, min(6, k - r) + 1):
            for ell in range(-1, m + 2):
                q = BFQuery(coeffs, r, m, ell)
                by_recursion = bf_recursive(q)
                by_formula = bf_explicit(q)
                if by_recursion != by_formula:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "bf_recursive == bf_explicit", by_recursion, by_formula
                    )
                if 0 <= ell <= m and not by_formula > 0:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(inst, "[[m, l]] > 0 for 0 <= l <= m", by_formula, 0)
    # Offset shift: [[m, l]]_{r-1} - [m == 0] equals
    # [[m-1, l]]_r + (a_r / 2) [[m-1, l-1]]_r.  The subtraction only makes
    # sense where the left side can reach 1, so the corner m = 0, l != 0
    # stays out of scope.
    for r in (1, 2):
        if r > k:
            continue
        for m in range(0, min(6, k - r + 1) + 1):
            for ell in range(-1, m + 2):
                if m == 0 and ell != 0:
                    continue
                lhs = bf_explicit(BFQuery(coeffs, r - 1, m, ell)) - (1 if m == 0 else 0)
                rhs = bf_explicit(BFQuery(coeffs, r, m - 1, ell)) + Fraction(
                    coeffs[r - 1], 2
                ) * bf_explicit(BFQuery(coeffs, r, m - 1, ell - 1))
                if lhs != rhs:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(inst, "offset shift identity", lhs, rhs)
    # Dividing the first m+1 coefficients by their gcd can only shrink the
    # numbers, by at most a factor d^l.
    for r in (0, 1, 2):
        if r > k:
            continue
        for m in range(0, min(6, k - r, k - 1) + 1):
            d = math.gcd(*coeffs[: m + 1])
            scaled = tuple(c // d for c in coeffs[: m + 1]) + coeffs[m + 1 :]
            for ell in range(0, m + 1):
                original = bf_explicit(BFQuery(coeffs, r, m, ell))
                reduced = bf_explicit(BFQuery(scaled, r, m, ell))
                if not original <= d**ell * reduced:
                    inst = dict(instance, r=r, m=m, ell=ell)
                    return _fail(
                        inst, "[[m, l]] <= d^l [[m, l]] of reduced", original,
                        d**ell * reduced,
                    )
    return None


_ASYMPTOTIC_POINTS = (1_000, 10_000)


def _check_asymptotic(instance: dict) -> Failure | None:
    coeffs = instance["coeffs"]
    k = len(coeffs)
    seqs = bound_sequences(coeffs)
    shift_down = seqs.lower_shifts[-1]
    shift_up = seqs.upper_shifts[-1]
    scale = math.factorial(k - 1) * math.prod(coeffs)
    for n in _ASYMPTOTIC_POINTS:
        if not Fraction(n) > shift_down:
            continue
        exact = denumerant(coeffs, n).value
        ratio = Fraction(exact * scale, n ** (k - 1))
        low = (1 - shift_down / n) ** (k - 1)
        high = (1 + shift_up / n) ** (k - 1)
        inst = dict(instance, n=n)
        if not low <= ratio:
            return _fail(inst, "(1 - s/n)^(k-1) <= normalized count", low, ratio)
        if not ratio <= high:
            return _fail(inst, "normalized count <= (1 + s/n)^(k-1)", ratio, high)
    return None


# ---------------------------------------------------------------------------
# Shrinking and suite runners.
# ---------------------------------------------------------------------------


def shrink_failure(
    instance: dict, check: Callable[[dict], Failure | None], relation: str
) -> dict:
    """Greedily minimize a failing instance: n toward 0, then each
    coefficient toward 1, keeping candidates that fail the same relation."""

    def still_fails(candidate: dict) -> bool:
        found = _attempt(check, candidate)
        return found is not None and found.relation == relation

    current = dict(instance)
    if "n" in current:
        improved = True
        while improved:
            improved = False
            n = current["n"]
            for smaller in (0, n // 2, n - 1):
                if 0 <= smaller < n and still_fails(dict(current, n=smaller)):
                    current = dict(current, n=smaller)
                    improved = True
                    break
    if "coeffs" in current:
        improved = True
        while improved:
            improved = False
            coeffs = current["coeffs"]
            for pos in range(len(coeffs)):
                value = coeffs[pos]
                for smaller in (1, value // 2, value - 1):
                    if not 1 <= smaller < value:
                        continue
                    candidate = dict(
                        current,
                        coeffs=coeffs[:pos] + (smaller,) + coeffs[pos + 1 :],
                    )
                    if still_fails(candidate):
                        current = candidate
                        improved = True
                        break
                if improved:
                    break
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


_POWERSUM_SHIFTS = (
    Fraction(0),
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(3, 8),
    Fraction(1, 2),
)
# The relations behind the three flags of ``powersum._sum_bounds``, in order.
_ENCLOSURE = (
    "crude lower <= refined lower",
    "refined lower <= power sum",
    "power sum <= upper",
)


def _run_powersum(cfg: SweepConfig) -> tuple[int, list[Failure]]:
    """A fixed grid, not a random draw: the seed does not change this suite.

    Exponents 2..8, shifts c in {0, 1/8, 1/4, 3/8, 1/2}, x = -c + j/16 for
    j = 0..320, plus the step identity f_k(n+1) - f_k(n) = (n+1+c)^k on
    integer points.
    """
    failures: list[Failure] = []
    instances = 0
    for k in range(2, 9):
        for c in _POWERSUM_SHIFTS:
            for j in range(0, 321):
                x = -c + Fraction(j, 16)
                q = PowerSumQuery(x, c, k)
                instances += 1
                inst = {"k": k, "c": str(c), "x": str(x)}
                value = power_sum(q)
                held = _sum_bounds(q, value)
                if not all(held):
                    failures.append(_fail(inst, _ENCLOSURE[held.index(False)], "", ""))
                    continue
                cap = refined_upper_bound(q)
                if not value <= cap:
                    failures.append(
                        _fail(inst, "power sum <= refined upper", value, cap)
                    )
    for k in range(2, 9):
        for c in _POWERSUM_SHIFTS:
            for n in range(0, 21):
                instances += 1
                step = power_sum(PowerSumQuery(Fraction(n + 1), c, k)) - power_sum(
                    PowerSumQuery(Fraction(n), c, k)
                )
                expected = (n + 1 + c) ** k
                if step != expected:
                    inst = {"k": k, "c": str(c), "n": n}
                    failures.append(
                        _fail(inst, "f(n+1) - f(n) == (n+1+c)^k", step, expected)
                    )
    return instances, failures


# name: (coefficient draw, whether n is drawn after it, check)
_DRAWN_SUITES: dict[str, tuple[Callable, bool, Callable[[dict], Failure | None]]] = {
    "oracle-eq": (_draw_tuple, True, _check_oracle_eq),
    "popoviciu": (_draw_pair, True, _check_popoviciu),
    "inequality-a": (_draw_coprime_tuple, True, _check_inequality_a),
    "inequality-b": (_draw_coprime_tuple, True, _check_inequality_b),
    "dhat": (_draw_tuple, True, _check_relaxed),
    "frobenius": (_draw_coprime_tuple, False, _check_frobenius),
    "bf-identities": (_draw_tuple, False, _check_bf_identities),
    "asymptotic": (_draw_coprime_tuple, False, _check_asymptotic),
}


def run_verify(cfg: SweepConfig) -> VerificationReport:
    """Run one suite to completion and return its deterministic report."""
    started = time.perf_counter()
    skipped: Counter[str] = Counter()
    if cfg.suite == "powersum":
        instances, failures = _run_powersum(cfg)
    else:
        instances, failures = _run_drawn(cfg, *_DRAWN_SUITES[cfg.suite], skipped)
    elapsed = time.perf_counter() - started
    return VerificationReport(
        suite=cfg.suite,
        config=cfg,
        instances=instances,
        failures=failures,
        wall_time_s=elapsed,
        skipped=dict(sorted(skipped.items())),
    )
