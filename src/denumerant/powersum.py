"""The truncated power sum f_k(x) = sum_{l=0}^{[x]} (x - l + c)^k and its
polynomial enclosure, the engine behind every induction step in the bounds.

For k >= 2, 0 <= c <= 1/2 and x >= -c,

    (x + c)^(k+1) / (k+1)
      <= (x + c)^(k+1) / (k+1) + (x + c)^k / 2
      <= f_k(x)
      <= (x + c + 1/2)^(k+1) / (k+1),

and the middle estimate can be tightened from above by k (x + c)^(k-1) / 8.

Everything is evaluated in integers.  With x + c = p/d in lowest terms the
sum is sum_step (p - step*d)^k over d^k, divided once; the bounds are
compared after scaling by L = 2^(k+1) (k+1) d^(k+1), which turns every one
of them into an integer (see ``_scaled_refined``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError


@dataclass(frozen=True)
class PowerSumQuery:
    """One evaluation point: exponent k >= 1, shift 0 <= c <= 1/2, x >= -c."""

    x: Fraction
    c: Fraction
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.k < 1:
            raise DomainError(f"exponent must be >= 1, got {self.k}")
        if not 0 <= self.c <= Fraction(1, 2):
            raise DomainError(f"shift must lie in [0, 1/2], got {self.c}")
        if self.x < -self.c:
            raise DomainError(f"x must be >= {-self.c}, got {self.x}")


def power_sum(q: PowerSumQuery) -> Fraction:
    """Evaluate f_k(x) term by term; [x] truncates toward zero, so the sum
    has a single term whenever -c <= x < 1.

    With x + c = p/d in lowest terms the terms are (p - step*d)^k / d^k, so
    the sum runs over integers and divides by d^k once.
    """
    base = q.x + q.c
    p, d = base.numerator, base.denominator
    total = sum((p - step * d) ** q.k for step in range(math.trunc(q.x) + 1))
    return Fraction(total, d**q.k)


def check_sum_bounds(q: PowerSumQuery) -> tuple[bool, bool, bool]:
    """Evaluate the three-bound chain at one point, for k >= 2.

    Returns (left, middle, right): whether the crude lower bound is below
    the refined one, whether the refined one is below f_k, and whether f_k
    is below the upper bound.
    """
    if q.k < 2:
        raise DomainError(f"the enclosure is stated for k >= 2, got k={q.k}")
    return _sum_bounds(q, power_sum(q))


def _scaled_refined(q: PowerSumQuery) -> tuple[int, int, int, int, int]:
    """Write x + c = p/d in lowest terms and scale by L = 2^(k+1) (k+1) d^(k+1).

    Returns (p, d, L, crude * L, refined * L); both products are integers:

        crude * L   = (2p)^(k+1)
        refined * L = crude * L + 2^k (k+1) d p^k
    """
    k = q.k
    base = q.x + q.c
    p, d = base.numerator, base.denominator
    scale = ((k + 1) << (k + 1)) * d ** (k + 1)
    crude = (2 * p) ** (k + 1)
    refined = crude + ((k + 1) << k) * d * p**k
    return p, d, scale, crude, refined


def _sum_bounds(q: PowerSumQuery, value: Fraction) -> tuple[bool, bool, bool]:
    """The chain of ``check_sum_bounds`` against a given value of f_k(x).

    Compared after scaling by L (see ``_scaled_refined``): upper * L is
    (2p + d)^(k+1), and value * L = value.numerator * L / value.denominator
    is compared by multiplying the other side by value.denominator, which
    keeps every comparison in integers for any rational value.
    """
    p, d, scale, crude, refined = _scaled_refined(q)
    upper = (2 * p + d) ** (q.k + 1)
    scaled_value, den = value.numerator * scale, value.denominator
    return (
        crude <= refined,
        refined * den <= scaled_value,
        scaled_value <= upper * den,
    )


def refined_upper_bound(q: PowerSumQuery) -> Fraction:
    """The sharper upper estimate

        f_k(x) <= (x+c)^(k+1)/(k+1) + (x+c)^k/2 + k (x+c)^(k-1) / 8,

    valid on the same domain as the enclosure (k >= 2).  Scaled by L (see
    ``_scaled_refined``) the last term is 2^(k-2) k (k+1) d^2 p^(k-1), so
    the sum is formed in integers and divided by L once."""
    if q.k < 2:
        raise DomainError(f"the refinement is stated for k >= 2, got k={q.k}")
    k = q.k
    p, d, scale, _, refined = _scaled_refined(q)
    last = ((k * (k + 1)) << (k - 2)) * d * d * p ** (k - 1)
    return Fraction(refined + last, scale)
