"""The coefficient validator, the input checks shared by every module,
exact arithmetic helpers, and the error vocabulary.

Everything in this package computes with arbitrary-precision integers and
exact rationals; no floating point ever enters the math core.  A
coefficient tuple is a plain ``tuple[int, ...]`` and every function here is
pure, so values can be shared freely across threads or worker processes.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


class DenumerantError(Exception):
    """Base class for the domain errors raised by this package."""


class NotCoprimeError(DenumerantError):
    """An operation that needs gcd(a_1, ..., a_k) = 1 got a tuple with gcd > 1."""


class TooShortTupleError(DenumerantError):
    """An operation that needs at least two coefficients got fewer."""


class NotApplicableError(DenumerantError):
    """The input lies outside the region where the requested result is defined."""


class IndexRangeError(DenumerantError):
    """An evaluation would read a coefficient past the end of the tuple."""


class BudgetExceededError(DenumerantError):
    """An input would take more work or memory than a fixed budget allows:
    oracle nodes, DP row or Frobenius table cells, --n-range width or
    sweep trials."""


class DomainError(DenumerantError):
    """A query parameter violates the domain the inequality is proved on."""


class InvariantViolationError(DenumerantError):
    """An identity that must always hold failed; this signals a bug."""


def as_coeffs(values: Sequence[int]) -> tuple[int, ...]:
    """Validate a coefficient tuple (a_1, ..., a_k): at least one entry,
    each an integer >= 1 (anything ``operator.index`` accepts, so True
    becomes 1).

    Order matters: the running gcds, hence every shift sequence built from
    them, depend on it.  The solution count itself does not.
    """
    try:
        coeffs = tuple(map(operator.index, values))
    except TypeError as err:
        raise ValueError(f"coefficients must be integers: {err}") from err
    if not coeffs:
        raise ValueError("coefficient tuple must not be empty")
    for value in coeffs:
        if value < 1:
            raise ValueError(f"coefficients must be >= 1, got {value}")
    return coeffs


def _require_natural(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n


def _require_coprime(coeffs: tuple[int, ...], problem: str) -> tuple[int, ...]:
    if math.gcd(*coeffs) != 1:
        raise NotCoprimeError(f"{coeffs} {problem}")
    return coeffs


def gcd_chain(a: Sequence[int]) -> tuple[int, ...]:
    """The running gcds d_i = gcd(a_1, ..., a_i), left to right.

    Each entry divides the one before it, and the tuple is coprime exactly
    when the final entry is 1.
    """
    return tuple(itertools.accumulate(as_coeffs(a), math.gcd))


def format_rational(value: Rational) -> str:
    """Render an exact rational as "p/q", or as a bare integer when q = 1."""
    return str(value if isinstance(value, Fraction) else Fraction(value))
