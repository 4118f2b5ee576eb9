"""Elementary and analytic number-theory primitives.

Sieves, totients, prime enumeration and the odd Mertens product.
Everything integer-valued is exact; real-valued products are accumulated
as compensated sums of logs (``math.fsum`` over float64 terms), which
keeps the relative error of every documented quantity below ~1e-13 --
far inside the 1e-12 contract.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

__all__ = [
    "FactorSieve",
    "build_sieve",
    "euler_phi",
    "omega",
    "distinct_primes",
    "is_prime",
    "coprime_count",
    "mertens_product",
    "primes_upto",
    "phi_array",
    "omega_array",
]


class FactorSieve(namedtuple("FactorSieve", "limit spf")):
    """Smallest-prime-factor table up to ``limit``.

    ``spf[m]`` is the smallest prime factor of ``m`` for ``2 <= m <= limit``,
    with the convention ``spf[1] = 1`` (an int32 array of length limit+1).
    Immutable after construction and safe to share across threads/processes.
    """

    __slots__ = ()

    def __new__(cls, limit: int, spf: np.ndarray):
        if limit < 1:
            raise ValueError("sieve limit must be >= 1")
        spf.setflags(write=False)
        return super().__new__(cls, limit, spf)


def build_sieve(limit: int) -> FactorSieve:
    """Build a smallest-prime-factor sieve for 1..limit."""
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    spf = np.zeros(limit + 1, dtype=np.int32)
    if limit >= 1:
        spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            block = spf[p * p :: p]
            block[block == 0] = p
    # everything still unset is a prime above sqrt(limit)
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    spf[0] = 0
    return FactorSieve(limit=limit, spf=spf)


def _check_range(m: int, sieve: FactorSieve) -> None:
    if not 1 <= m <= sieve.limit:
        raise ValueError(f"m={m} outside sieve range 1..{sieve.limit}")


def euler_phi(m: int, sieve: FactorSieve) -> int:
    """Euler's totient of m, exact, via the spf factorization."""
    _check_range(m, sieve)
    spf = sieve.spf
    result = 1
    while m > 1:
        p = int(spf[m])
        pe = p - 1
        m //= p
        while m % p == 0:
            pe *= p
            m //= p
        result *= pe
    return result


def omega(m: int, sieve: FactorSieve) -> int:
    """Number of distinct prime factors of m; omega(1) = 0."""
    _check_range(m, sieve)
    spf = sieve.spf
    count = 0
    while m > 1:
        p = int(spf[m])
        count += 1
        while m % p == 0:
            m //= p
    return count


def distinct_primes(m: int, sieve: FactorSieve) -> list[int]:
    """Distinct prime factors of m in increasing order."""
    _check_range(m, sieve)
    spf = sieve.spf
    primes = []
    while m > 1:
        p = int(spf[m])
        primes.append(p)
        while m % p == 0:
            m //= p
    return primes


def is_prime(m: int, sieve: FactorSieve) -> bool:
    _check_range(m, sieve)
    return m >= 2 and int(sieve.spf[m]) == m


def _trial_distinct_primes(m: int) -> list[int]:
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def coprime_count(m: int, n: int) -> int:
    """Exact count of j <= n with gcd(j, m) = 1.

    Inclusion-exclusion over the squarefree divisors of m:
    sum over d | rad(m) of mu(d) * floor(n/d).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    total = 0
    # (divisor, mobius sign) pairs built incrementally over distinct primes
    terms = [(1, 1)]
    for p in _trial_distinct_primes(m):
        terms += [(d * p, -s) for d, s in terms]
    for d, s in terms:
        total += s * (n // d)
    return total


@lru_cache(maxsize=64)
def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only int64 array."""
    if limit < 2:
        out = np.empty(0, dtype=np.int64)
        out.setflags(write=False)
        return out
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    out = np.nonzero(~composite)[0].astype(np.int64)
    out.setflags(write=False)
    return out


def mertens_product(x: float) -> float:
    """prod over odd primes 3 <= p <= x of (1 - 1/p).

    Accumulated as a compensated sum of log1p terms; relative error is
    below 1e-13 for x <= 1e7.
    """
    if x < 3:
        raise ValueError("mertens_product requires x >= 3")
    ps = primes_upto(int(math.floor(x)))
    return math.exp(math.fsum(np.log1p(-1.0 / ps[1:])))  # skip p = 2


def _prime_multiples(limit: int):
    """Yield (index, p) pairs that visit each m <= limit once per prime p | m.

    A prime p <= sqrt(limit) comes as the slice [p::p] with p an int.  A
    larger prime q divides each of its multiples q*k (k < q) exactly once,
    and no m <= limit has two such primes, so those multiples are grouped
    by cofactor k: index q*k and p = q over the large primes q <= limit//k,
    one array pair per k.  No index repeats within a pair, so fancy-index
    updates are safe, and updates by different primes commute.
    """
    ps = primes_upto(limit)
    root = math.isqrt(limit)
    split = int(np.searchsorted(ps, root, side="right"))
    for p in ps[:split].tolist():
        yield slice(p, None, p), p
    large = ps[split:]
    for k in range(1, limit // (root + 1) + 1):
        qs = large[: int(np.searchsorted(large, limit // k, side="right"))]
        if not qs.size:
            break
        yield qs * k, qs


def phi_array(limit: int) -> np.ndarray:
    """phi(m) for m = 0..limit as an int64 array (phi[0] = 0).

    Bulk companion to :func:`euler_phi` for distribution scans.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    phi = np.arange(limit + 1, dtype=np.int64)
    for idx, p in _prime_multiples(limit):
        phi[idx] -= phi[idx] // p
    phi[0] = 0
    return phi


def omega_array(limit: int) -> np.ndarray:
    """omega(m) for m = 0..limit as an int8 array."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    w = np.zeros(limit + 1, dtype=np.int8)
    for idx, _ in _prime_multiples(limit):
        w[idx] += 1
    return w
