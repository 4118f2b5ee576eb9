"""Empirical distribution of phi(m)/m over odd m, moments and tail sets.

All threshold comparisons are exact: a cutoff alpha is carried as a
rational and "phi(m)/m <= alpha" is decided by integer cross-
multiplication, so boundary ratios (phi(3)/3 = 2/3 at alpha = 2/3, say)
can never flip on floating-point noise.  The bulk scans run on shared
numpy phi tables that grow on demand.
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
    "ep_upper_check",
    "as_fraction",
]

# diagnostic tolerance when comparing finite-n densities against the
# literature brackets for the limit (reference.BRACKETS); the convergence
# rate is not known, so bracket comparisons warn rather than fail
BRACKET_DIAGNOSTIC_TOL = 0.004

# odd m per chunk of the exact second-moment sum
_MOMENT_CHUNK = 1 << 15

_phi_cache: dict[str, np.ndarray | int] = {"limit": 0}


def _ensure_phi(limit: int) -> np.ndarray:
    if _phi_cache["limit"] < limit:
        _phi_cache["phi"] = phi_array(limit)
        _phi_cache["limit"] = limit
    return _phi_cache["phi"]


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


def _odd_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd m < 2n and phi(m), read from the shared table."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(1, 2 * n, 2, dtype=np.int64), _ensure_phi(2 * n)[1 : 2 * n : 2]


def d_count(alpha, n: int) -> DistEstimate:
    """Exact D(alpha, n): odd m < 2n with phi(m)/m <= alpha."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    count = _count_le(a, *_odd_terms(n))
    return DistEstimate(alpha=a, n=n, count=count, density=count / n)


def second_moment(n: int) -> float:
    """sum over odd m < 2n of (m/phi(m))^2.

    Each term is accumulated as an exact scaled integer
    floor(m^2 * 2^80 / phi(m)^2); the total truncation error is below
    n / 2^80, far under float64 resolution of the result.  The integers
    are formed in chunks of _MOMENT_CHUNK odd m, which bounds the memory
    of the object arrays without changing the exact sum.
    """
    m, ph = _odd_terms(n)
    acc = 0
    for lo in range(0, len(m), _MOMENT_CHUNK):
        mc = m[lo : lo + _MOMENT_CHUNK]
        pc = ph[lo : lo + _MOMENT_CHUNK]
        num = (mc * mc).astype(object)
        den = (pc * pc).astype(object)
        acc += int(((num << 80) // den).sum())
    return acc / 2**80


def second_moment_constant(P: int) -> float:
    """prod over odd primes p <= P of (1 + (2p-1)/((p-1)^2 p))."""
    if P < 3:
        raise ValueError("P must be >= 3")
    # float64 primes: (p-1)^2 * p overflows int64 once p passes ~2e6
    p = primes_upto(P)[1:].astype(np.float64)
    return math.exp(math.fsum(np.log1p((2.0 * p - 1.0) / ((p - 1.0) ** 2 * p))))


def top_interval_set(n: int) -> set[int]:
    """Odd m < 2n with phi(m)/m > 1 - 1/sqrt(2n).

    The comparison is exact: phi/m > 1 - 1/sqrt(2n) iff
    2n*(m - phi)^2 < m^2.  Callers compare the result against
    :func:`top_interval_characterization`, the closed form
    {1} union {primes in (sqrt(2n), 2n)}.
    """
    m, ph = _odd_terms(n)
    if (2 * n) ** 3 < 2**63:
        d = m - ph
        mask = 2 * n * d * d < m * m
        return set(int(v) for v in m[mask])
    return {
        int(a)
        for a, b in zip(m.tolist(), ph.tolist())
        if 2 * n * (a - b) ** 2 < a * a
    }


def top_interval_characterization(n: int) -> set[int]:
    """{1} union {primes p with sqrt(2n) < p < 2n}."""
    ps = primes_upto(2 * n - 1)
    return {1} | {int(p) for p in ps if int(p) ** 2 > 2 * n}


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
