"""Empirical distribution of phi(m)/m over odd m, moments and tail sets.

All threshold comparisons are exact: a cutoff alpha is carried as a
rational and "phi(m)/m <= alpha" is decided by integer cross-
multiplication, so boundary ratios (phi(3)/3 = 2/3 at alpha = 2/3, say)
can never flip on floating-point noise.  The bulk scans share one numpy
table of phi over the odd numbers, grown on demand, and walk it in
chunks, so no full-length array but that table is formed; the second
moment is summed exactly by int64 long division.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .arith import mertens_product, phi_array, primes_upto
from .checks import BoundReport

__all__ = [
    "DistEstimate",
    "d_count",
    "second_moment",
    "second_moment_constant",
    "top_interval_set",
    "top_interval_characterization",
    "top_interval_check",
    "ep_upper_check",
    "as_fraction",
]

# diagnostic tolerance when comparing finite-n densities against the
# literature brackets for the limit (reference.BRACKETS); the convergence
# rate is not known, so bracket comparisons warn rather than fail
BRACKET_DIAGNOSTIC_TOL = 0.004

# odd m per chunk of every scan
_CHUNK = 1 << 15

# fixed-point scale of the second-moment terms
_MOMENT_BITS = 80

# phi(2i+1) for i < _phi_cache["n"]
_phi_cache: dict[str, np.ndarray | int] = {"n": 0}


def _ensure_phi(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    if _phi_cache["n"] < n:
        _phi_cache["phi"] = phi_array(n)
        _phi_cache["n"] = n
    return _phi_cache["phi"][:n]


def as_fraction(alpha) -> Fraction:
    """Read a cutoff as an exact rational.

    Floats are interpreted through their shortest decimal representation
    (so 0.7 means 7/10, not the nearest binary double).
    """
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
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


def _odd_chunks(ph: np.ndarray):
    """(m, phi(m)) int64 array pairs of at most _CHUNK entries, in order,
    over the odd m < 2 * len(ph) whose totients the table slice ``ph``
    holds."""
    for lo in range(0, len(ph), _CHUNK):
        pc = ph[lo : lo + _CHUNK]
        yield np.arange(2 * lo + 1, 2 * (lo + len(pc)), 2, dtype=np.int64), pc


def d_count(alpha, n: int) -> DistEstimate:
    """Exact D(alpha, n): odd m < 2n with phi(m)/m <= alpha."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    count = sum(_count_le(a, m, ph) for m, ph in _odd_chunks(_ensure_phi(n)))
    return DistEstimate(alpha=a, n=n, count=count, density=count / n)


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
    m2, p2 = m * m, ph * ph
    q = m2 // p2
    r = m2 - q * p2
    total = int(q.sum()) << _MOMENT_BITS
    done = 0
    while done < _MOMENT_BITS:
        step = min(w, _MOMENT_BITS - done)
        r <<= step
        d = r // p2
        r -= d * p2
        done += step
        total += int(d.sum()) << (_MOMENT_BITS - done)
    return total


def second_moment(n: int) -> float:
    """sum over odd m < 2n of (m/phi(m))^2.

    Each term is accumulated as an exact scaled integer
    floor(m^2 * 2^80 / phi(m)^2); the total truncation error is below
    n / 2^80, far under float64 resolution of the result.  The terms are
    summed in chunks of _CHUNK odd m by int64 long division with
    digits of w = 62 - bitlen(max phi^2) bits (20 at n = 10^6), which
    gives the same integer as dividing Python ints.  Everything fits in
    int64 once w >= 1: some prime p in (n, 2n) has phi(p) >= n, so
    m^2 < 4n^2 <= 4 max phi^2 < 2^63, and a digit sum over at most n
    terms stays below n * 2^w < n * 2^62 / n^2.
    """
    ph = _ensure_phi(n)
    w = 62 - (int(ph.max()) ** 2).bit_length()
    acc = sum(_scaled_sum(m, pc, w) for m, pc in _odd_chunks(ph))
    return acc / 2**_MOMENT_BITS


def second_moment_constant(P: int) -> float:
    """prod over odd primes p <= P of (1 + (2p-1)/((p-1)^2 p))."""
    if P < 3:
        raise ValueError("P must be >= 3")
    # float64 primes: (p-1)^2 * p overflows int64 once p passes ~2e6
    p = primes_upto(P)[1:].astype(np.float64)
    return math.exp(math.fsum(np.log1p((2.0 * p - 1.0) / ((p - 1.0) ** 2 * p))))


def top_interval_set(n: int) -> np.ndarray:
    """Odd m < 2n with phi(m)/m > 1 - 1/sqrt(2n), as a sorted int64 array.

    The comparison is exact: phi/m > 1 - 1/sqrt(2n) iff 2n*(m - phi)^2 <
    m^2, iff (m - phi)^2 < ceil(m^2 / 2n) for the integer (m - phi)^2;
    m^2 stays in int64 for the n < 1.5e9 accepted.  Each chunk's members
    stay an int64 array, never Python ints.  :func:`top_interval_check`
    compares the result against :func:`top_interval_characterization`.
    """
    if n >= 1_500_000_000:
        raise ValueError(f"n={n} is too large for the top-interval set (n < 1.5e9)")
    found = []
    for m, ph in _odd_chunks(_ensure_phi(n)):
        d = m - ph
        found.append(m[d * d < -(-(m * m) // (2 * n))])
    return np.concatenate(found)


def top_interval_characterization(n: int) -> np.ndarray:
    """{1} union {primes p with sqrt(2n) < p < 2n}, as a sorted int64 array."""
    ps = primes_upto(2 * n - 1)
    return np.concatenate(([1], ps[ps > math.isqrt(2 * n)]))


def top_interval_check(n: int) -> tuple[int, int]:
    """The size of :func:`top_interval_set` and the number of m in only one
    of it and :func:`top_interval_characterization`.

    Both are sorted int64 arrays (about 149K entries, 1.2 MB each, at
    n = 10^6), so the symmetric difference forms no Python int per member.
    """
    got = top_interval_set(n)
    missed = np.setxor1d(got, top_interval_characterization(n), assume_unique=True)
    return len(got), len(missed)


def ep_upper_check(x, n: int) -> BoundReport:
    """Check 1 - delta(1 - 1/x, n) <= M(x) - 1/sqrt(n) at finite n."""
    xf = as_fraction(x)
    if not 2 <= xf <= math.log(n):
        raise ValueError(f"x={x} outside the valid range [2, log n]")
    alpha = 1 - 1 / xf
    lhs = 1.0 - d_count(alpha, n).density
    mprod = 1.0 if xf < 3 else mertens_product(float(xf))
    rhs = mprod - 1.0 / math.sqrt(n)
    return BoundReport.make(
        name=f"tail-upper(x={x}, n={n})",
        computed=lhs,
        relation="<=",
        claimed=rhs,
        notes="1 - delta(1-1/x, n) vs M(x) - 1/sqrt(n)",
    )
