"""Two-sided bounds on the solution count, exact in rational arithmetic.

The shift sequences are built along the gcd chain d_i = gcd(a_1, ..., a_i):

    upper:   s+_1 = a_1 a_2 / (2 d_2),   s+_{i+1} = s+_i + (d_i / (2 d_{i+1})) a_{i+1}
    lower:   s-_1 = -a_1,                s-_{i+1} = s-_i + (d_i / d_{i+1} - 1) a_{i+1}
    relaxed: r_1  = a_1,                 r_{i+1}  = r_i + a_{i+1} / 2

For a coprime tuple with k >= 2 the polynomial sandwich is

    (n - s-_k)^(k-1) / ((k-1)! prod a)  <=  D(n)   for n >= s-_k,
    D(n)  <=  (n + s+_k)^(k-1) / ((k-1)! prod a)   for n >= 0,

and the series lower bound sharpens the left side using the triangular
weights with offset 2.  The relaxed count (sum <= n, any k >= 1) is the
count of the slack tuple (1,) + a, and its chain is that tuple's sandwich:
along its gcd chain of ones, s-_{k+1} = -1 and s+_{k+1} = r_k.

The paper proves these for coprime tuples, and the gcd d of any other is
reduced in one place: D(a, n) = D(a/d, n/d) when d divides n, and the
relaxed count of a at n is that of a/d at floor(n/d).  So a sandwich is
prepared for a/d, keeps d, and reads each target n at floor(n/d) itself.

Each sandwich is prepared once per tuple, in integers: every step
d_i / d_{i+1} is one, so s-_i, 2 s+_i and 2 r_i are integers, and the
series polynomial's coefficients are scaled from the weights' own
numerators and denominators.  ``_shift_numerators`` gives s-_i and 2 s+_i
along the gcd chain: ``bound_sequences`` wraps them in ``Fraction``s, the
sandwich reads the last two as they are, and ``bound_frobenius`` reads the
last s-_k as its integer upper bound on g.  Each value at a target is
one integer over a fixed denominator, and ``numerators`` gives them for a
span of targets by column, each a lazy map: integer powers for lower_a and
upper_a, and Horner's rule down the column for the series, so a caller
pays only for the columns it reads.  ``contains`` tests a column of counts
against them in integers, which is the CLI's ``ok``.  A single target is a
span of one: ``at``, ``series_lower`` and
``relaxed_count_chain`` make a ``Fraction`` of its values, the
``inequality-b`` sweep tests its count in integers, and the CLI prints
them without one.

A tuple's sandwich is prepared once per process, within a bound: ``of``
and ``relaxed`` validate the tuple as given and then read one memo keyed on
it (coefficient order changes the shifts), so the public functions, the
CLI and the sweeps share one frozen sandwich per tuple.  The memo holds at
most ``SANDWICH_CACHE_MAX_WORDS`` 64-bit words of the sandwiches' integers,
the least recently used out first, though the one just stored always stays;
its lock guards the bookkeeping, never a preparation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .bfnum import bf_explicit
from .core import (
    NotApplicableError,
    TooShortTupleError,
    _require_coprime,
    _require_natural,
    as_coeffs,
    gcd_chain,
)
from .exact import _RowReader, _WordCache

_NOT_COPRIME = "is not coprime; reduce by the gcd first"

# The most 64-bit words of integers the sandwiches prepared in a process may
# hold together (``_Sandwich.words``): past it the least recently used are
# evicted, though the one just stored always stays.
SANDWICH_CACHE_MAX_WORDS = 1 << 16


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


def _require_two(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """A validated tuple, refused unless it has the k >= 2 the bounds need."""
    if len(coeffs) < 2:
        raise TooShortTupleError(f"the bounds need at least two coefficients, got {coeffs}")
    return coeffs


def _shift_numerators(coeffs: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """s-_i and 2 s+_i for i = 1, ..., k, of a tuple with k >= 2, in integers:
    each step d_{i-1} / d_i along the gcd chain is one."""
    d = gcd_chain(coeffs)
    twice_upper = [coeffs[0] * coeffs[1] // d[1]]
    lower = [-coeffs[0]]
    for i in range(1, len(coeffs)):
        step = d[i - 1] // d[i]
        twice_upper.append(twice_upper[-1] + step * coeffs[i])
        lower.append(lower[-1] + (step - 1) * coeffs[i])
    return lower, twice_upper


def bound_sequences(a: Sequence[int]) -> BoundSequences:
    """Build the upper and lower shift sequences of the tuple; needs k >= 2."""
    lower, twice_upper = _shift_numerators(_require_two(as_coeffs(a)))
    return BoundSequences(
        upper_shifts=tuple(Fraction(h, 2) for h in twice_upper),
        lower_shifts=tuple(map(Fraction, lower)),
    )


@dataclass(frozen=True)
class _Sandwich:
    """The polynomial sandwich and the series lower bound of a reduced tuple
    with k >= 2 and integer shifts s- and h = 2 s+, prepared once, with the
    gcd its targets are divided by.  With m = n // gcd and B = m - s-, each
    value at a target n is one integer over a fixed denominator:

        lower_a = B^(k-1) / ((k-1)! prod a)
        upper_a = (2m + h)^(k-1) / (2^(k-1) (k-1)! prod a)
        lower_b = B * (c_0 B^(k-2) + ... + c_(k-2)) / (2^(k-2) (k-1)! prod a)

    with c_i = 2^(k-2) [[k-2, i]]_2 (k-1)! / (k-1-i)!, an integer.

    A prepared sandwich is frozen and shared: ``of`` and ``relaxed`` return
    the one the memo holds to every caller and thread.
    """

    gcd: int
    lower_shift: int
    _twice_upper_shift: int
    power: int
    # The denominators of lower_a, lower_b and upper_a.
    denominators: tuple[int, int, int]
    # c_0, ..., c_(k-2).
    series: tuple[int, ...]
    # repeat(x) yields x for ever and changes no state, so one of each
    # serves every map, in every call and thread.
    _powers: repeat = field(repr=False, compare=False)
    _series: tuple[repeat, ...] = field(repr=False, compare=False)

    @classmethod
    def _prepare(cls, a: tuple[int, ...], gcd: int, lower: int, twice_upper: int) -> _Sandwich:
        power = len(a) - 1
        denom = math.factorial(power) * math.prod(a)
        series = _series_numerators(a, power - 1)
        return cls(
            gcd, lower, twice_upper, power,
            (denom, denom << (power - 1), denom << power), series,
            repeat(power), tuple(map(repeat, series)),
        )

    @classmethod
    def of(cls, a: Sequence[int]) -> _Sandwich:
        """The sandwich of a/d, d = gcd(a), which bounds D(a, n) at every n
        that d divides; the length is checked on a as given."""
        return cls._of_coeffs(_require_two(as_coeffs(a)))

    @classmethod
    def _of_coeffs(cls, coeffs: tuple[int, ...]) -> _Sandwich:
        """``of`` for a tuple already validated, with k >= 2."""

        def prepare(_: None) -> _Sandwich:
            d = math.gcd(*coeffs)
            reduced = tuple(c // d for c in coeffs) if d > 1 else coeffs
            lower, twice_upper = _shift_numerators(reduced)
            return cls._prepare(reduced, d, lower[-1], twice_upper[-1])

        return _sandwiches.get(("of", coeffs), prepare)

    @classmethod
    def relaxed(cls, a: Sequence[int]) -> _Sandwich:
        """The relaxed-count chain of a (any k >= 1, any gcd d): the sandwich
        of the slack tuple (1,) + a/d, which bounds the relaxed count of a
        at every n.  Its shifts are taken without building its sequences:
        along its gcd chain of ones s- = -1, so the series bound holds at
        every n >= 0, and s+ = r_k of a/d, so 2 s+ = 2 a_1 + a_2 + ... + a_k
        over d."""
        coeffs = as_coeffs(a)

        def prepare(_: None) -> _Sandwich:
            d = math.gcd(*coeffs)
            reduced = tuple(c // d for c in coeffs) if d > 1 else coeffs
            return cls._prepare((1,) + reduced, d, -1, reduced[0] + sum(reduced))

        return _sandwiches.get(("relaxed", coeffs), prepare)

    @property
    def words(self) -> int:
        """The 64-bit words of the integers the sandwich holds, one at least
        for each."""
        held = (
            self.gcd, self.lower_shift, self._twice_upper_shift, self.power,
            *self.denominators, *self.series,
        )
        return sum((v.bit_length() + 63) // 64 or 1 for v in held)

    def numerators(
        self, lo: int, hi: int
    ) -> tuple[Iterator[int], Iterator[int | None], Iterator[int]]:
        """The numerators of lower_a, lower_b and upper_a over
        ``denominators``, each a column with one entry for each m = n // gcd
        from lo // gcd to hi // gcd; lower_b's is None below s-, where it is
        not claimed, so its Nones come first.  The columns are lazy maps, so
        a caller that reads one column pays for that one alone."""
        m, last = lo // self.gcd, hi // self.gcd
        h = self._twice_upper_shift
        bases = range(m - self.lower_shift, last + 1 - self.lower_shift)
        claimed = bases[-bases.start :] if bases.start < 0 else bases
        # Horner's rule down the column, a pass per coefficient.
        series, *rest = self._series
        for c in rest:
            series = map(add, map(mul, series, claimed), c)
        series = map(mul, claimed, series)
        if len(claimed) < len(bases):
            series = chain(repeat(None, len(bases) - len(claimed)), series)
        return (
            map(pow, bases, self._powers),
            series,
            map(pow, range(2 * m + h, 2 * last + h + 1, 2), self._powers),
        )

    def contains(
        self, counts: Iterable[int], numerators: tuple[Iterable[int], ...]
    ) -> list[bool]:
        """Whether each count lies in the sandwich at its entry of the
        columns ``numerators``: count <= upper_a, and lower_a <= lower_b <=
        count where lower_b is claimed (which also gives lower_a <= count)."""
        _, series_den, upper_den = self.denominators
        shift = self.power - 1
        return [
            count * upper_den <= upper
            and (series is None or lower << shift <= series <= count * series_den)
            for count, lower, series, upper in zip(counts, *numerators)
        ]

    def at(self, n: int) -> BoundReport:
        (lower,), _, (upper,) = self.numerators(n, n)
        return BoundReport(
            lower_a=Fraction(lower, self.denominators[0]),
            upper_a=Fraction(upper, self.denominators[2]),
            applicable_lower=n // self.gcd >= self.lower_shift,
        )

    def series_lower(self, n: int) -> Fraction:
        (series,) = self.numerators(n, n)[1]
        if series is None:
            raise NotApplicableError(
                f"the series bound needs n >= {self.lower_shift}, got n={n}"
            )
        return Fraction(series, self.denominators[1])


# Every sandwich prepared in this process, keyed on how it was asked for and
# the tuple as validated: coefficient order changes the shifts.
_sandwiches = _WordCache(lambda sandwich: sandwich.words, lambda: SANDWICH_CACHE_MAX_WORDS)


def _series_numerators(a: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The integers c_0, ..., c_m with

        sum_{i=0}^{m} [[m, i]]_2 x^(m+1-i) / (m+1-i)!
            = x (c_0 x^m + c_1 x^(m-1) + ... + c_m) / (2^m (m+1)!),

    that is c_i = 2^m [[m, i]]_2 (m+1)! / (m+1-i)!; [[m, i]]_2 2^i is an
    integer, so each c_i is one."""
    numerators, scale = [], 1 << m  # scale = 2^m (m+1)! / (m+1-i)!
    for i, weight in enumerate(bf_explicit(a, 2, m)):
        num, den = weight.as_integer_ratio()
        numerators.append(num * scale // den)
        scale *= m + 1 - i
    return tuple(numerators)


def _coprime_sandwich(a: Sequence[int]) -> _Sandwich:
    """The prepared bounds of a coprime tuple with k >= 2, the tuples they
    are proved for; the tuple is validated once."""
    return _Sandwich._of_coeffs(_require_coprime(_require_two(as_coeffs(a)), _NOT_COPRIME))


def inequality_a(a: Sequence[int], n: int) -> BoundReport:
    """The polynomial sandwich for a coprime tuple with k >= 2.

    The upper bound holds for every n >= 0; the lower bound is only claimed
    for n >= s-_k, recorded in ``applicable_lower``.
    """
    sandwich = _coprime_sandwich(a)
    return sandwich.at(_require_natural(n))


def inequality_b_lower(a: Sequence[int], n: int) -> Fraction:
    """The series lower bound, valid for coprime tuples at n >= s-_k:

        D(n) >= (1 / prod a) * sum_{i=0}^{k-2} [[k-2, i]]_2 (n - s-_k)^(k-1-i) / (k-1-i)!

    At k = 2 the sum has the single term (n - s-_2) / (a_1 a_2), which is
    exactly the polynomial lower bound; for larger k it is never smaller.
    """
    sandwich = _coprime_sandwich(a)
    return sandwich.series_lower(_require_natural(n))


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
    relaxed = _Sandwich.relaxed(a)
    n = _require_natural(n)
    return tuple(map(Fraction, map(next, relaxed.numerators(n, n)), relaxed.denominators))


def prefix_sum_count(a: Sequence[int], n: int) -> int:
    """The relaxed count computed the slow way, as the sum of the exact
    counts D(a, 0), ..., D(a, n).

    D(a, m) is 0 unless d = gcd(a) divides m, so the sum is that of
    D(a/d, 0..floor(n/d)), read a chunk at a time from the one cached row
    of a/d that the count at n reads, under the same budget.
    """
    return sum(_RowReader(a).counts(_require_natural(n)))
