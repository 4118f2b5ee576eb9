"""Empirical distribution of phi(m)/m over odd m, moments and tail sets.

All threshold comparisons are exact: a cutoff alpha is carried as a
rational and "phi(m)/m <= alpha" is decided by integer cross-
multiplication, so boundary ratios (phi(3)/3 = 2/3 at alpha = 2/3, say)
can never flip on floating-point noise.  Every scan streams the segments
of the odd sieve in ``arith`` (the pairs (m, phi(m)) or the odd primes),
so no array as long as the range is formed and none outlives its
segment; a run of several cutoffs counts them all in one pass.  The
second moment is summed exactly by int64 long division.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .arith import odd_phi, odd_prime_fsum, odd_primes

__all__ = [
    "DistEstimate",
    "d_count",
    "d_counts",
    "second_moment",
    "top_interval_check",
    "as_fraction",
]

# fixed-point scale of the second-moment terms
_MOMENT_BITS = 80

def as_fraction(alpha) -> Fraction:
    """Read a cutoff as an exact rational.

    Floats are interpreted through their shortest decimal representation
    (so 0.7 means 7/10, not the nearest binary double).
    """
    if isinstance(alpha, float):
        return Fraction(str(alpha))
    try:
        return Fraction(alpha)
    except ZeroDivisionError:
        raise ValueError(f"cutoff {alpha!r} has a zero denominator") from None


class DistEstimate(namedtuple("DistEstimate", "alpha n count density")):
    """A pair (alpha, D(alpha, n)/n) with the exact count behind it."""

    __slots__ = ()


def _count_le(alpha: Fraction, m: np.ndarray, ph: np.ndarray) -> int:
    """#(indices with ph/m <= alpha), exact via cross-multiplication."""
    p, q = alpha.numerator, alpha.denominator
    if q * int(ph.max(initial=0)) < 2**62 and p * int(m.max(initial=0)) < 2**62:
        return int(np.count_nonzero(q * ph <= p * m))
    return sum(1 for a, b in zip(ph.tolist(), m.tolist()) if q * a <= p * b)


def d_counts(alphas, n: int) -> list[DistEstimate]:
    """Exact D(alpha, n) for each cutoff, in order, from one pass over the
    odd m < 2n."""
    cuts = [as_fraction(alpha) for alpha in alphas]
    if not all(0 <= a <= 1 for a in cuts):
        raise ValueError("alpha must lie in [0, 1]")
    counts = [0] * len(cuts)
    for m, ph in odd_phi(n):
        for i, a in enumerate(cuts):
            counts[i] += _count_le(a, m, ph)
    return [DistEstimate(a, n, c, c / n) for a, c in zip(cuts, counts)]


def d_count(alpha, n: int) -> DistEstimate:
    """Exact D(alpha, n): odd m < 2n with phi(m)/m <= alpha."""
    return d_counts([alpha], n)[0]


def _scaled_sum(m: np.ndarray, ph: np.ndarray, w: int) -> int:
    """sum of floor(m^2 * 2^80 / ph^2), exact, for int64 arrays m >= ph > 0.

    Long division in base 2^w: the integer quotient first, then each
    remainder shifted up w bits (fewer for the last digit) and divided
    again.  Every remainder is below ph^2, so a shifted one stays below
    2^62 when ph^2 < 2^(62-w), and each digit position is summed in int64.
    With no room for a digit (w < 1) the terms are formed as Python ints.
    """
    if w < 1:
        m, ph = m.astype(object), ph.astype(object)
        return int(((m * m << _MOMENT_BITS) // (ph * ph)).sum())
    p2 = ph * ph
    q, r = np.divmod(m * m, p2)
    total = int(q.sum()) << _MOMENT_BITS
    done = 0
    while done < _MOMENT_BITS:
        step = min(w, _MOMENT_BITS - done)
        r <<= step
        d, r = np.divmod(r, p2)
        done += step
        total += int(d.sum()) << (_MOMENT_BITS - done)
    return total


def second_moment(n: int) -> float:
    """sum over odd m < 2n of (m/phi(m))^2.

    Each term is accumulated as an exact scaled integer
    floor(m^2 * 2^80 / phi(m)^2); the total truncation error is below
    n / 2^80, far under float64 resolution of the result.  The terms are
    summed one sieve segment at a time by int64 long division with
    digits of w = 62 - bitlen((2n - 1)^2) bits (20 at n = 10^6), which
    gives the same integer as dividing Python ints: long division is
    exact at any digit width.  Everything fits in int64 once w >= 1:
    m^2 and phi^2 are at most (2n - 1)^2 < 2^(62-w), and a digit sum
    over at most n terms stays below n * 2^w <= n * 2^62 / (2n - 1)^2.
    """
    w = 62 - ((2 * n - 1) ** 2).bit_length()
    acc = sum(_scaled_sum(m, ph, w) for m, ph in odd_phi(n))
    return acc / 2**_MOMENT_BITS


def _second_moment_constant(P: int) -> float:
    """prod over odd primes p <= P of (1 + (2p-1)/((p-1)^2 p))."""
    if P < 3:
        raise ValueError("P must be >= 3")
    return math.exp(
        odd_prime_fsum(P, lambda p: np.log1p((2.0 * p - 1.0) / ((p - 1.0) ** 2 * p)))
    )


def _top_interval_set(n: int) -> np.ndarray:
    """Odd m < 2n with phi(m)/m > 1 - 1/sqrt(2n), as a sorted int64 array.

    The comparison is exact: phi/m > 1 - 1/sqrt(2n) iff 2n*(m - phi)^2 <
    m^2, iff (m - phi)^2 < ceil(m^2 / 2n) for the integer (m - phi)^2;
    m^2 stays in int64 for the n < 1.5e9 accepted.  Each segment's members
    stay an int64 array, never Python ints.  :func:`top_interval_check`
    compares the result against :func:`_top_interval_characterization`.
    """
    if n >= 1_500_000_000:
        raise ValueError(f"n={n} is too large for the top-interval set (n < 1.5e9)")
    found = []
    for m, ph in odd_phi(n):
        d = m - ph
        found.append(m[d * d < -(-(m * m) // (2 * n))])
    return np.concatenate(found)


def _top_interval_characterization(n: int) -> np.ndarray:
    """{1} union {primes p with sqrt(2n) < p < 2n}, as a sorted int64 array.

    2 is never past sqrt(2n), so the odd primes of the sieve suffice.
    """
    root = math.isqrt(2 * n)
    return np.concatenate([[1], *(ps[ps > root] for ps in odd_primes(2 * n - 1))])


def top_interval_check(n: int) -> tuple[int, int]:
    """The size of :func:`_top_interval_set` and the number of m in only one
    of it and :func:`_top_interval_characterization`.

    Both are sorted int64 arrays (about 149K entries, 1.2 MB each, at
    n = 10^6), so the symmetric difference forms no Python int per member.
    """
    got = _top_interval_set(n)
    missed = np.setxor1d(got, _top_interval_characterization(n), assume_unique=True)
    return len(got), len(missed)

