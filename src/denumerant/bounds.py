"""Two-sided bounds on the solution count, exact in rational arithmetic.

The shift sequences are built along the gcd chain d_i = gcd(a_1, ..., a_i):

    upper:   s+_1 = a_1 a_2 / (2 d_2),   s+_{i+1} = s+_i + (d_i / (2 d_{i+1})) a_{i+1}
    lower:   s-_1 = -a_1,                s-_{i+1} = s-_i + (d_i / d_{i+1} - 1) a_{i+1}
    relaxed: r_1  = a_1,                 r_{i+1}  = r_i + a_{i+1} / 2

For a coprime tuple with k >= 2 the polynomial sandwich is

    (n - s-_k)^(k-1) / ((k-1)! prod a)  <=  D(n)   for n >= s-_k,
    D(n)  <=  (n + s+_k)^(k-1) / ((k-1)! prod a)   for n >= 0,

and the series lower bound sharpens the left side using the triangular
weights with offset 2.  The relaxed count (sum <= n, any gcd) is squeezed
for every k >= 1 between polynomials in d*floor(n/d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bfnum import BFQuery, bf_explicit
from .core import (
    InvariantViolationError,
    NotApplicableError,
    TooShortTupleError,
    _require_coprime,
    _require_natural,
    as_coeffs,
    gcd_chain,
)
from .exact import denumerant

_NOT_COPRIME = "is not coprime; reduce by the gcd first"


@dataclass(frozen=True)
class BoundSequences:
    """Shift sequences of a tuple, one entry per prefix length.

    ``gcd_weighted_sum`` is sum(a_{i+1} * d_i / d_{i+1}); it ties the
    sequences together: lower_shifts[-1] = gcd_weighted_sum - sum(a) and
    upper_shifts[-1] = gcd_weighted_sum / 2 + a_1 a_2 / (2 d_2).
    """

    upper_shifts: tuple[Fraction, ...]
    lower_shifts: tuple[Fraction, ...]
    relaxed_shifts: tuple[Fraction, ...]
    gcd_weighted_sum: Fraction


@dataclass(frozen=True)
class BoundReport:
    """One bounded instance: lower_a/upper_a from the polynomial sandwich,
    lower_b from the series refinement (None when not computed).

    ``applicable_lower`` records whether n is large enough for the lower
    bounds to be claimed; ``sandwich_ok`` is None when no exact value was
    available to compare against.
    """

    coeffs: tuple[int, ...]
    n: int
    exact: int | None
    lower_a: Fraction | None
    lower_b: Fraction | None
    upper_a: Fraction | None
    applicable_lower: bool
    sandwich_ok: bool | None


def _two_or_more(a: Sequence[int]) -> tuple[int, ...]:
    """Validate a tuple for the bounds that need k >= 2."""
    coeffs = as_coeffs(a)
    if len(coeffs) < 2:
        raise TooShortTupleError(f"the bounds need at least two coefficients, got {coeffs}")
    return coeffs


def relaxed_shift_sequence(a: Sequence[int]) -> tuple[Fraction, ...]:
    """The shifts r_i = a_1 + (a_2 + ... + a_i) / 2, defined for every k >= 1."""
    coeffs = as_coeffs(a)
    shifts = [Fraction(coeffs[0])]
    for value in coeffs[1:]:
        shifts.append(shifts[-1] + Fraction(value, 2))
    return tuple(shifts)


def bound_sequences(a: Sequence[int]) -> BoundSequences:
    """Build all shift sequences of the tuple; needs k >= 2."""
    coeffs = _two_or_more(a)
    d = gcd_chain(coeffs)
    upper = [Fraction(coeffs[0] * coeffs[1], 2 * d[1])]
    lower = [Fraction(-coeffs[0])]
    weighted = Fraction(0)
    for i in range(1, len(coeffs)):
        step = Fraction(d[i - 1], d[i])
        upper.append(upper[-1] + step / 2 * coeffs[i])
        lower.append(lower[-1] + (step - 1) * coeffs[i])
        weighted += step * coeffs[i]
    return BoundSequences(
        upper_shifts=tuple(upper),
        lower_shifts=tuple(lower),
        relaxed_shifts=relaxed_shift_sequence(coeffs),
        gcd_weighted_sum=weighted,
    )


def _sandwich_denominator(coeffs: tuple[int, ...]) -> int:
    return math.factorial(len(coeffs) - 1) * math.prod(coeffs)


def main_term(a: Sequence[int], n: int) -> Fraction:
    """The leading-order approximation n^(k-1) / ((k-1)! prod a)."""
    coeffs = _two_or_more(a)
    _require_natural(n)
    return Fraction(n ** (len(coeffs) - 1), _sandwich_denominator(coeffs))


def inequality_a(
    a: Sequence[int], n: int, exact: int | None = None
) -> BoundReport:
    """The polynomial sandwich for a coprime tuple with k >= 2.

    The upper bound holds for every n >= 0; the lower bound is only claimed
    for n >= s-_k, recorded in ``applicable_lower``.
    """
    coeffs = _require_coprime(_two_or_more(a), _NOT_COPRIME)
    _require_natural(n)
    seqs = bound_sequences(coeffs)
    shift_up = seqs.upper_shifts[-1]
    shift_down = seqs.lower_shifts[-1]
    denom = _sandwich_denominator(coeffs)
    power = len(coeffs) - 1
    upper = (n + shift_up) ** power / denom
    lower = (n - shift_down) ** power / denom
    applicable = Fraction(n) >= shift_down
    ok: bool | None = None
    if exact is not None:
        ok = exact <= upper and (not applicable or lower <= exact)
    return BoundReport(
        coeffs=coeffs,
        n=n,
        exact=exact,
        lower_a=lower,
        lower_b=None,
        upper_a=upper,
        applicable_lower=applicable,
        sandwich_ok=ok,
    )


def inequality_b_lower(a: Sequence[int], n: int) -> Fraction:
    """The series lower bound, valid for coprime tuples at n >= s-_k:

        D(n) >= (1 / prod a) * sum_{i=0}^{k-2} [[k-2, i]]_2 (n - s-_k)^(k-1-i) / (k-1-i)!

    At k = 2 the sum has the single term (n - s-_2) / (a_1 a_2), which is
    exactly the polynomial lower bound; for larger k it is never smaller.
    """
    coeffs = _require_coprime(_two_or_more(a), _NOT_COPRIME)
    _require_natural(n)
    shift_down = bound_sequences(coeffs).lower_shifts[-1]
    if Fraction(n) < shift_down:
        raise NotApplicableError(
            f"the series bound needs n >= {shift_down}, got n={n}"
        )
    k = len(coeffs)
    base = n - shift_down
    total = Fraction(0)
    for i in range(k - 1):
        weight = bf_explicit(BFQuery(coeffs, 2, k - 2, i))
        total += weight * base ** (k - 1 - i) / math.factorial(k - 1 - i)
    return total / math.prod(coeffs)


def relaxed_count_chain(
    a: Sequence[int], n: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Lower, refined lower, and upper bound for the relaxed count (sum <= n).

    With d = gcd(a), q = d * floor(n/d) and b = q + d, every k >= 1 and any
    gcd satisfy

        b^k / (k! prod a)
          <= (1 / prod a) sum_{i=0}^{k-1} [[k-1, i]]_1 b^(k-i) / (k-i)!
          <= count
          <= (q + r_k)^k / (k! prod a).
    """
    coeffs = as_coeffs(a)
    _require_natural(n)
    k = len(coeffs)
    d = math.gcd(*coeffs)
    q = d * (n // d)
    base = q + d
    prod = math.prod(coeffs)
    lower = Fraction(base**k, math.factorial(k) * prod)
    refined = Fraction(0)
    for i in range(k):
        weight = bf_explicit(BFQuery(coeffs, 1, k - 1, i))
        refined += weight * base ** (k - i) / math.factorial(k - i)
    refined /= prod
    shift = relaxed_shift_sequence(coeffs)[-1]
    upper = (q + shift) ** k / (math.factorial(k) * prod)
    return lower, refined, upper


def relaxed_count_bounds(
    a: Sequence[int], n: int, exact: int | None = None
) -> BoundReport:
    """Bound the relaxed count and assert the chain against an exact value.

    Violations raise InvariantViolationError: the chain holds for every
    positive tuple and every n >= 0, so a failure is a bug.
    """
    coeffs = as_coeffs(a)
    lower, refined, upper = relaxed_count_chain(coeffs, n)
    if lower > refined:
        raise InvariantViolationError(
            f"relaxed-count chain broken at {coeffs}, n={n}: {lower} > {refined}"
        )
    if exact is not None and not (refined <= exact <= upper):
        raise InvariantViolationError(
            f"relaxed-count chain broken at {coeffs}, n={n}: "
            f"{refined} <= {exact} <= {upper} fails"
        )
    return BoundReport(
        coeffs=coeffs,
        n=n,
        exact=exact,
        lower_a=lower,
        lower_b=refined,
        upper_a=upper,
        applicable_lower=True,
        sandwich_ok=None if exact is None else True,
    )


def blom_froberg_bounds(a: Sequence[int], n: int) -> BoundReport:
    """The specialization a_1 = 1: every shift collapses and the chain

        (n+1)^(k-1) / ((k-1)! prod a)
          <= series lower bound  <=  D(n)  <=  (n + s_k)^(k-1) / ((k-1)! prod a)

    holds for every n >= 0, with s_k = a_2 + (a_3 + ... + a_k) / 2.
    """
    coeffs = _two_or_more(a)
    if coeffs[0] != 1:
        raise NotApplicableError(
            f"this chain needs a_1 = 1, got a_1 = {coeffs[0]}"
        )
    _require_natural(n)
    seqs = bound_sequences(coeffs)
    if seqs.lower_shifts[-1] != -1:
        raise InvariantViolationError(
            f"lower shift of a unit-led tuple must be -1, got {seqs.lower_shifts[-1]}"
        )
    shift = Fraction(coeffs[1]) + Fraction(sum(coeffs[2:]), 2)
    if shift != seqs.upper_shifts[-1]:
        raise InvariantViolationError(
            f"upper shift mismatch for unit-led tuple: {shift} vs {seqs.upper_shifts[-1]}"
        )
    denom = _sandwich_denominator(coeffs)
    power = len(coeffs) - 1
    lower = Fraction((n + 1) ** power, denom)
    refined = inequality_b_lower(coeffs, n)
    upper = (n + shift) ** power / denom
    exact = denumerant(coeffs, n).value
    ok = lower <= refined <= exact <= upper
    return BoundReport(
        coeffs=coeffs,
        n=n,
        exact=exact,
        lower_a=lower,
        lower_b=refined,
        upper_a=upper,
        applicable_lower=True,
        sandwich_ok=ok,
    )


def prefix_sum_count(a: Sequence[int], n: int) -> int:
    """The relaxed count computed the slow way, as sum of exact counts."""
    coeffs = as_coeffs(a)
    _require_natural(n)
    return sum(denumerant(coeffs, m).value for m in range(n + 1))
