"""Blom-Froberg numbers: the triangular weights behind the refined bounds.

For a coefficient tuple a (a plain tuple of positive integers) and an
offset r >= 0, the number [[m, l]]_r is defined by the recursion

    [[m, l]]_r = 0                                     if l < 0 or l > m,
    [[m, l]]_r = 1                                     if l = 0,
    [[m, l]]_r = [[m-1, l]]_r + (a_{m+r} / 2) * [[m-1, l-1]]_r   otherwise,

and satisfies the closed form

    [[m, l]]_r = (1 / 2^l) * e_l(a_{1+r}, ..., a_{m+r}),

with e_l the elementary symmetric polynomial.  Both routes are implemented
below so each can check the other: the recursion in exact rationals, the
closed form as an integer column update over the coefficients followed by
one division by 2^l.  Only queries with 1 <= l <= m touch the
coefficients, which is why [[m, 0]]_r = 1 holds for every m >= 0 regardless
of the tuple length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import IndexRangeError, as_coeffs


@dataclass(frozen=True)
class BFQuery:
    """One evaluation request: tuple a, offset r, position (m, l).

    Evaluation reads a_{1+r}, ..., a_{m+r}, so queries with 1 <= l <= m
    need m + r <= k; anything else never touches the coefficients.
    """

    a: tuple[int, ...]
    r: int
    m: int
    ell: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_coeffs(self.a))
        if self.r < 0:
            raise ValueError(f"offset must be >= 0, got {self.r}")


def _guard_indices(q: BFQuery) -> None:
    if 1 <= q.ell <= q.m and q.m + q.r > len(q.a):
        raise IndexRangeError(
            f"evaluating [[{q.m}, {q.ell}]] at offset {q.r} needs coefficient "
            f"index {q.m + q.r}, but the tuple has length {len(q.a)}"
        )


def bf_recursive(q: BFQuery) -> Fraction:
    """Evaluate [[m, l]]_r by the defining recursion, memoized per call."""
    _guard_indices(q)
    memo: dict[tuple[int, int], Fraction] = {}

    def rec(m: int, ell: int) -> Fraction:
        if ell < 0 or ell > m:
            return Fraction(0)
        if ell == 0:
            return Fraction(1)
        key = (m, ell)
        found = memo.get(key)
        if found is None:
            found = rec(m - 1, ell) + Fraction(q.a[m + q.r - 1], 2) * rec(
                m - 1, ell - 1
            )
            memo[key] = found
        return found

    return rec(q.m, q.ell)


def bf_explicit(q: BFQuery) -> Fraction:
    """Evaluate [[m, l]]_r as e_l(a_{1+r}, ..., a_{m+r}) / 2^l.

    The elementary symmetric value is accumulated in integers by the usual
    one-column Newton update, one coefficient at a time; the only rational
    step is the single division by 2^l at the end.
    """
    _guard_indices(q)
    if q.ell < 0 or q.ell > q.m:
        return Fraction(0)
    if q.ell == 0:
        return Fraction(1)
    column = [1] + [0] * q.ell
    for x in q.a[q.r : q.m + q.r]:
        for j in range(q.ell, 0, -1):
            column[j] += x * column[j - 1]
    return Fraction(column[q.ell], 1 << q.ell)
