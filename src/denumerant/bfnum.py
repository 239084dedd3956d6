"""Blom-Froberg numbers: the triangular weights behind the refined bounds.

For a coefficient tuple a (a plain tuple of positive integers) and an
offset r >= 0, the number [[m, l]]_r is defined by the recursion

    [[m, l]]_r = 0                                     if l < 0 or l > m,
    [[m, l]]_r = 1                                     if l = 0,
    [[m, l]]_r = [[m-1, l]]_r + (a_{m+r} / 2) * [[m-1, l-1]]_r   otherwise,

and satisfies the closed form

    [[m, l]]_r = (1 / 2^l) * e_l(a_{1+r}, ..., a_{m+r}),

with e_l the elementary symmetric polynomial.  Both routes are implemented
below so each can check the other, and each runs in integers.  The
recursion is carried times 2^m, a row at a time:

    N_m[l] = 2 N_{m-1}[l] + a_{m+r} N_{m-1}[l-1],   N_0 = (1,),

so [[m, l]]_r = N_m[l] / 2^m.  The closed form is the column update of
e_0, ..., e_m over the coefficients (``_elementary``), so
[[m, l]]_r = e_l / 2^l.  The two are different integer recurrences and
meet only in the comparison N_m[l] 2^l == e_l 2^m; a ``Fraction`` is made
once per returned entry, where a public function returns it.

The two routes return what each computes.  The closed form reaches row m
directly, so ``bf_explicit`` returns that one row, the m + 1 weights
([[m, 0]]_r, ..., [[m, m]]_r), which is what the bounds use.  The
recursion passes every row on its way to row m, so ``bf_recursive``
returns rows 0, ..., m, and a check of every row at one offset needs one
run, not one per row.  Row m reads a_{1+r}, ..., a_{m+r}, so it needs
m + r <= k when m >= 1; at m = -1 both routes return an empty tuple.  The
edge rules outside a row (0 for l < 0 or l > m, and [[m, 0]]_r = 1 for
any m >= 0 and any tuple length) read no coefficient; the ``bf`` command
applies them itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import IndexRangeError, as_coeffs


def _window(coeffs: tuple[int, ...], r: int, m: int) -> tuple[int, ...]:
    """Check a row request on a validated tuple and return the coefficients
    it reads, (a_{1+r}, ..., a_{m+r})."""
    if r < 0:
        raise ValueError(f"offset must be >= 0, got {r}")
    if m > 0 and m + r > len(coeffs):
        raise IndexRangeError(
            f"evaluating row {m} of [[m, l]] at offset {r} needs coefficient "
            f"index {m + r}, but the tuple has length {len(coeffs)}"
        )
    return coeffs[r : m + r]


def bf_recursive(
    a: Sequence[int], r: int, m: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Rows 0, ..., m of [[., l]]_r by the defining recursion, built from
    row 0 one row at a time, so no call stack grows with m; empty at m = -1.

    Row j is carried as the integers N_j[l] = 2^j [[j, l]]_r, and each
    entry is returned as N_j[l] / 2^j."""
    window = _window(as_coeffs(a), r, m)
    if m < 0:
        return ()
    row = (1,)
    rows = [(Fraction(1),)]
    for j, x in enumerate(window, 1):
        # Row j from row j - 1, padded with its zero neighbours l = -1 and l = j.
        prev = (0, *row, 0)
        row = tuple(2 * prev[ell + 1] + x * prev[ell] for ell in range(j + 1))
        rows.append(tuple(Fraction(n, 1 << j) for n in row))
    return tuple(rows)


def _elementary(a: tuple[int, ...], r: int, m: int) -> tuple[int, ...]:
    """e_0, ..., e_m of (a_{1+r}, ..., a_{m+r}) for a validated tuple a, so
    e_l = 2^l [[m, l]]_r; empty at m = -1.

    The values are accumulated in integers by the usual one-column Newton
    update, one coefficient at a time, each column entry updated from the
    top down so that it reads the previous coefficient's column below it.
    """
    window = _window(a, r, m)
    if m < 0:
        return ()
    column = [1] + [0] * m
    for x in window:
        for j in range(m, 0, -1):
            column[j] += x * column[j - 1]
    return tuple(column)


def bf_explicit(a: Sequence[int], r: int, m: int) -> tuple[Fraction, ...]:
    """The row ([[m, 0]]_r, ..., [[m, m]]_r) as e_l(a_{1+r}, ..., a_{m+r}) / 2^l,
    one division of ``_elementary``'s integers per entry."""
    column = _elementary(as_coeffs(a), r, m)
    return tuple(Fraction(e, 1 << ell) for ell, e in enumerate(column))
