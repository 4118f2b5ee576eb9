"""Empirical distribution of phi(m)/m over odd m, moments and tail sets.

All threshold comparisons are exact: a cutoff alpha is carried as a
rational and "phi(m)/m <= alpha" is decided by integer cross-
multiplication, so boundary ratios (phi(3)/3 = 2/3 at alpha = 2/3, say)
can never flip on floating-point noise.  The bulk scans run on shared
numpy phi tables that grow on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import mertens_product, phi_array, prime_recip_sum, primes_upto
from .bounds import BoundReport
from .reference import BRACKETS

__all__ = [
    "DistEstimate",
    "BracketRow",
    "BracketTable",
    "bracket_table",
    "d_count",
    "delta_phi",
    "check_dist_relation",
    "second_moment",
    "second_moment_constant",
    "top_interval_set",
    "top_interval_characterization",
    "ep_upper_check",
    "ep_lower_value",
    "as_fraction",
]

# diagnostic tolerance when comparing finite-n densities against the
# literature brackets for the limit; the convergence rate is not known,
# so bracket comparisons warn rather than fail (see BracketTable users)
BRACKET_DIAGNOSTIC_TOL = 0.004

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
    return Fraction(alpha)


@dataclass(frozen=True)
class DistEstimate:
    """A pair (alpha, D(alpha, n)/n) and where it came from."""

    alpha: Fraction
    n: int
    count: int
    density: float
    source: str = "empirical"


@dataclass(frozen=True)
class BracketRow:
    alpha: Fraction
    lower: float
    upper: float


@dataclass(frozen=True)
class BracketTable:
    rows: tuple[BracketRow, ...]

    def for_alpha(self, alpha) -> BracketRow:
        a = as_fraction(alpha)
        for row in self.rows:
            if row.alpha == a:
                return row
        raise KeyError(f"no bracket row for alpha={a}")


_BRACKETS = BracketTable(rows=tuple(BracketRow(*row) for row in BRACKETS))


def bracket_table() -> BracketTable:
    """The seven literature rows bracketing delta(alpha)."""
    return _BRACKETS


def _count_le(alpha: Fraction, m: np.ndarray, ph: np.ndarray) -> int:
    """#(indices with ph/m <= alpha), exact via cross-multiplication."""
    p, q = alpha.numerator, alpha.denominator
    if q * int(ph.max(initial=0)) < 2**62 and p * int(m.max(initial=0)) < 2**62:
        return int(np.count_nonzero(q * ph <= p * m))
    return sum(1 for a, b in zip(ph.tolist(), m.tolist()) if q * a <= p * b)


def d_count(alpha, n: int, *, phi: np.ndarray | None = None) -> DistEstimate:
    """Exact D(alpha, n): odd m < 2n with phi(m)/m <= alpha."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if phi is None:
        phi = _ensure_phi(2 * n)
    elif len(phi) < 2 * n:
        raise ValueError(f"phi table too small for n={n}")
    m = np.arange(1, 2 * n, 2, dtype=np.int64)
    ph = phi[1 : 2 * n : 2]
    count = _count_le(a, m, ph)
    return DistEstimate(alpha=a, n=n, count=count, density=count / n)


def delta_phi(alpha, N: int, *, phi: np.ndarray | None = None) -> float:
    """Empirical distribution of phi(m)/m over all m <= N."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if N < 1:
        raise ValueError("N must be >= 1")
    if phi is None:
        phi = _ensure_phi(N)
    elif len(phi) < N + 1:
        raise ValueError(f"phi table too small for N={N}")
    m = np.arange(1, N + 1, dtype=np.int64)
    ph = phi[1 : N + 1]
    return _count_le(a, m, ph) / N


def check_dist_relation(
    alpha, n: int, *, tol: float = 0.01, phi: np.ndarray | None = None
) -> BoundReport:
    """Finite-n check of delta_phi(alpha) = (delta(alpha) + delta(2*alpha))/2.

    Compares the all-integers density at scale 2n against the odd-only
    densities at scale n and reports the discrepancy.
    """
    a = as_fraction(alpha)
    lhs = delta_phi(a, 2 * n, phi=phi)
    rhs = 0.5 * (
        d_count(a, n, phi=phi).density
        + d_count(min(2 * a, Fraction(1)), n, phi=phi).density
    )
    disc = abs(lhs - rhs)
    return BoundReport.make(
        name=f"dist-relation(alpha={a}, n={n})",
        computed=disc,
        relation="<",
        claimed=tol,
        notes="|delta_phi - (delta(a)+delta(2a))/2| at finite n",
    )


def second_moment(n: int, *, phi: np.ndarray | None = None) -> float:
    """sum over odd m < 2n of (m/phi(m))^2.

    Each term is accumulated as an exact scaled integer
    floor(m^2 * 2^80 / phi(m)^2); the total truncation error is below
    n / 2^80, far under float64 resolution of the result.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phi is None:
        phi = _ensure_phi(max(2 * n, 2))
    elif len(phi) < 2 * n:
        raise ValueError(f"phi table too small for n={n}")
    m = np.arange(1, 2 * n, 2, dtype=np.int64)
    ph = phi[1 : 2 * n : 2]
    num = (m * m).astype(object)
    den = (ph * ph).astype(object)
    acc = int(((num << 80) // den).sum())
    return acc / 2**80


def second_moment_constant(P: int) -> float:
    """prod over odd primes p <= P of (1 + (2p-1)/((p-1)^2 p))."""
    if P < 3:
        raise ValueError("P must be >= 3")
    # int(p) promotion: (p-1)^2 * p exceeds int64 once p passes ~2e6
    logs = [
        math.log1p((2 * p - 1) / ((p - 1) ** 2 * p))
        for p in (int(q) for q in primes_upto(P)[1:])
    ]
    return math.exp(math.fsum(logs))


def top_interval_set(
    n: int, *, phi: np.ndarray | None = None, check: bool = True
) -> set[int]:
    """Odd m < 2n with phi(m)/m > 1 - 1/sqrt(2n).

    The comparison is exact: phi/m > 1 - 1/sqrt(2n) iff
    2n*(m - phi)^2 < m^2.  With ``check`` the result is verified against
    the closed characterization {1} union {primes in (sqrt(2n), 2n)}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if phi is None:
        phi = _ensure_phi(2 * n)
    elif len(phi) < 2 * n:
        raise ValueError(f"phi table too small for n={n}")
    m = np.arange(1, 2 * n, 2, dtype=np.int64)
    ph = phi[1 : 2 * n : 2]
    if (2 * n) ** 3 < 2**63:
        d = m - ph
        mask = 2 * n * d * d < m * m
        result = set(int(v) for v in m[mask])
    else:
        result = {
            int(a)
            for a, b in zip(m.tolist(), ph.tolist())
            if 2 * n * (a - b) ** 2 < a * a
        }
    if check:
        expected = top_interval_characterization(n)
        if result != expected:
            raise AssertionError(
                f"top interval set at n={n} differs from {{1}} + primes"
            )
    return result


def top_interval_characterization(n: int) -> set[int]:
    """{1} union {primes p with sqrt(2n) < p < 2n}."""
    ps = primes_upto(2 * n - 1)
    return {1} | {int(p) for p in ps if int(p) ** 2 > 2 * n}


def ep_upper_check(x, n: int, *, phi: np.ndarray | None = None) -> BoundReport:
    """Check 1 - delta(1 - 1/x, n) <= M(x) - 1/sqrt(n) at finite n."""
    xf = as_fraction(x)
    if not 2 <= xf <= math.log(n):
        raise ValueError(f"x={x} outside the valid range [2, log n]")
    alpha = 1 - 1 / xf
    lhs = 1.0 - d_count(alpha, n, phi=phi).density
    mprod = 1.0 if xf < 3 else mertens_product(float(xf))
    rhs = mprod - 1.0 / math.sqrt(n)
    return BoundReport.make(
        name=f"tail-upper(x={x}, n={n})",
        computed=lhs,
        relation="<=",
        claimed=rhs,
        notes="1 - delta(1-1/x, n) vs M(x) - 1/sqrt(n)",
    )


def ep_lower_value(x: float, *, term_tol: float = 1e-15) -> float:
    """Main term of the tail lower bound: M(2x)(1 - sum_j s_j^(j+1)/(j+1)!).

    s_j sums 1/p over primes in (4^(j-1)*2x, 4^j*2x]; the j-sum is
    truncated once a term falls below ``term_tol`` (terms decay
    superexponentially since s_j = O(1/j)).
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    base = 2.0 * x
    terms = []
    j = 1
    while True:
        s = prime_recip_sum(4 ** (j - 1) * base, 4**j * base)
        term = s ** (j + 1) / math.factorial(j + 1)
        terms.append(term)
        if term < term_tol:
            break
        j += 1
    return mertens_product(base) * (1.0 - math.fsum(terms))
