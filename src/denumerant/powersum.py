"""The truncated power sum f_k(x) = sum_{l=0}^{[x]} (x - l + c)^k and its
polynomial enclosure, the engine behind every induction step in the bounds.

For k >= 2, 0 <= c <= 1/2 and x >= -c,

    (x + c)^(k+1) / (k+1)
      <= (x + c)^(k+1) / (k+1) + (x + c)^k / 2
      <= f_k(x)
      <= (x + c + 1/2)^(k+1) / (k+1),

and the middle estimate can be tightened from above by k (x + c)^(k-1) / 8.

Everything is evaluated in integers.  With x + c = p/d the sum is
sum_step (p - step*d)^k over d^k, and f_k and all four estimates are scaled
by L = 2^(k+1) (k+1) d^(k+1), which makes each of them an integer.
``_estimates`` gives L and the four estimates, and ``_enclosure`` adds the
sum, term by term, the slow route.  Every scaled value is homogeneous of
degree k+1 in (p, d), so comparisons between them hold for any p/d, reduced
or not: the ``powersum`` verify suite walks its grid as integers, with
x + c = j/16, and builds no ``Fraction`` unless a check fails.  It reads
``_estimates`` once per (j, k), keeps the sums as running sums along each
residue chain j mod 16, and compares the last sum of each chain with
``_enclosure``'s under its own relation.  The public functions take a
``PowerSumQuery`` and make one kernel call each: ``power_sum`` and
``refined_upper_bound`` divide by L once, and ``check_sum_bounds``
compares the scaled values themselves.
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


def _estimates(p: int, d: int, k: int) -> tuple[int, int, int, int, int]:
    """The estimates of f_k at x + c = p/d (d > 0, p >= 0), each times
    L = 2^(k+1) (k+1) d^(k+1).

    Returns (L, crude * L, refined * L, upper * L, refined_upper * L):

        crude * L         = (2p)^(k+1)
        refined * L       = crude * L + 2^k (k+1) d p^k
        upper * L         = (2p + d)^(k+1)
        refined_upper * L = refined * L + 2^(k-2) k (k+1) d^2 p^(k-1)
    """
    lead = (k + 1) << (k + 1)
    crude = (2 * p) ** (k + 1)
    refined = crude + (lead >> 1) * d * p**k
    # k (k + 1) is even, so 2^(k-2) k (k+1) is an integer for every k >= 1.
    cap = refined + ((k * (k + 1) >> 1) << (k - 1)) * d * d * p ** (k - 1)
    return lead * d ** (k + 1), crude, refined, (2 * p + d) ** (k + 1), cap


def _enclosure(p: int, d: int, k: int, steps: int) -> tuple[int, int, int, int, int, int]:
    """f_k and its estimates at x + c = p/d with steps = [x] + 1 terms, each
    times L, as ``_estimates`` gives them.

    Returns (L, f_k * L, crude * L, refined * L, upper * L, refined_upper * L),
    where f_k * L = 2^(k+1) (k+1) d sum_{step < steps} (p - step*d)^k.
    """
    scale, *estimates = _estimates(p, d, k)
    lead = (k + 1) << (k + 1)
    total = lead * d * sum((p - step * d) ** k for step in range(steps))
    return scale, total, *estimates


def _point(q: PowerSumQuery) -> tuple[int, int]:
    """x + c as (numerator, denominator) in lowest terms."""
    base = q.x + q.c
    return base.numerator, base.denominator


def power_sum(q: PowerSumQuery) -> Fraction:
    """Evaluate f_k(x) term by term; [x] truncates toward zero, so the sum
    has a single term whenever -c <= x < 1."""
    scale, total, *_ = _enclosure(*_point(q), q.k, math.trunc(q.x) + 1)
    return Fraction(total, scale)


def check_sum_bounds(q: PowerSumQuery) -> tuple[bool, bool, bool]:
    """Evaluate the three-bound chain at one point, for k >= 2.

    Returns (left, middle, right): whether the crude lower bound is below
    the refined one, whether the refined one is below f_k, and whether f_k
    is below the upper bound.  One kernel call gives f_k and the estimates
    on the same scale L, so each comparison is one between integers.
    """
    if q.k < 2:
        raise DomainError(f"the enclosure is stated for k >= 2, got k={q.k}")
    _, total, crude, refined, upper, _ = _enclosure(*_point(q), q.k, math.trunc(q.x) + 1)
    return crude <= refined, refined <= total, total <= upper


def refined_upper_bound(q: PowerSumQuery) -> Fraction:
    """The sharper upper estimate

        f_k(x) <= (x+c)^(k+1)/(k+1) + (x+c)^k/2 + k (x+c)^(k-1) / 8,

    valid on the same domain as the enclosure (k >= 2)."""
    if q.k < 2:
        raise DomainError(f"the refinement is stated for k >= 2, got k={q.k}")
    scale, *_, cap = _estimates(*_point(q), q.k)
    return Fraction(cap, scale)
