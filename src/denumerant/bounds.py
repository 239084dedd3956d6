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

from .bfnum import bf_explicit
from .core import (
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
    """Shift sequences of a tuple, one entry per prefix length."""

    upper_shifts: tuple[Fraction, ...]
    lower_shifts: tuple[Fraction, ...]


@dataclass(frozen=True)
class BoundReport:
    """One bounded instance: lower_a/upper_a from the polynomial sandwich.

    ``applicable_lower`` records whether n is large enough for the lower
    bound to be claimed.  Comparing the bounds with a count is the
    caller's part: ``exact <= upper_a`` always, and ``lower_a <= exact``
    when ``applicable_lower``.
    """

    lower_a: Fraction
    upper_a: Fraction
    applicable_lower: bool


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
    """Build the upper and lower shift sequences of the tuple; needs k >= 2."""
    coeffs = _two_or_more(a)
    d = gcd_chain(coeffs)
    upper = [Fraction(coeffs[0] * coeffs[1], 2 * d[1])]
    lower = [Fraction(-coeffs[0])]
    for i in range(1, len(coeffs)):
        step = Fraction(d[i - 1], d[i])
        upper.append(upper[-1] + step / 2 * coeffs[i])
        lower.append(lower[-1] + (step - 1) * coeffs[i])
    return BoundSequences(upper_shifts=tuple(upper), lower_shifts=tuple(lower))


def inequality_a(a: Sequence[int], n: int) -> BoundReport:
    """The polynomial sandwich for a coprime tuple with k >= 2.

    The upper bound holds for every n >= 0; the lower bound is only claimed
    for n >= s-_k, recorded in ``applicable_lower``.
    """
    coeffs = _require_coprime(_two_or_more(a), _NOT_COPRIME)
    _require_natural(n)
    seqs = bound_sequences(coeffs)
    shift_up = seqs.upper_shifts[-1]
    shift_down = seqs.lower_shifts[-1]
    power = len(coeffs) - 1
    denom = math.factorial(power) * math.prod(coeffs)
    return BoundReport(
        lower_a=(n - shift_down) ** power / denom,
        upper_a=(n + shift_up) ** power / denom,
        applicable_lower=Fraction(n) >= shift_down,
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
    for i, weight in enumerate(bf_explicit(coeffs, 2, k - 2)):
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
    for i, weight in enumerate(bf_explicit(coeffs, 1, k - 1)):
        refined += weight * base ** (k - i) / math.factorial(k - i)
    refined /= prod
    shift = relaxed_shift_sequence(coeffs)[-1]
    upper = (q + shift) ** k / (math.factorial(k) * prod)
    return lower, refined, upper


def prefix_sum_count(a: Sequence[int], n: int) -> int:
    """The relaxed count computed the slow way, as sum of exact counts."""
    coeffs = as_coeffs(a)
    _require_natural(n)
    return sum(denumerant(coeffs, m).value for m in range(n + 1))
