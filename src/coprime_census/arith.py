"""Elementary and analytic number-theory primitives.

The coprime count F(m, n) by trial division (``coprime_count(m, m)`` is
phi(m)), and one segmented sieve over the odd numbers that every numeric
scan streams.  It walks the odd m a fixed _SEGMENT at a time and yields
either the odd primes (:func:`odd_primes`) or the pairs (m, phi(m)) of
each segment (:func:`odd_phi`), so no scan forms an array as long as its
range; ``dist`` and ``bounds`` read it directly.  The sieve yields no
other table: the prime table and the odd Mertens product are read from
the prime segments.  Everything integer-valued is exact;
real-valued products are accumulated as compensated sums of logs
(``math.fsum`` over float64 terms, correctly rounded, so the
segmentation cannot change them), which keeps the relative error of
every documented quantity below ~1e-13 -- far inside the 1e-12 contract.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .graph import prime_factors

__all__ = [
    "coprime_count",
    "mertens_product",
    "primes_upto",
    "odd_primes",
    "odd_phi",
    "odd_prime_fsum",
]

# odd m per segment of every streamed scan
_SEGMENT = 1 << 15


def coprime_count(m: int, n: int) -> int:
    """Exact count of j <= n with gcd(j, m) = 1.

    Inclusion-exclusion over the squarefree divisors of m:
    sum over d | rad(m) of mu(d) * floor(n/d), the distinct primes of m
    read by ``graph.prime_factors``, trial division.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    # (divisor, mobius sign) pairs built incrementally over distinct primes
    terms = [(1, 1)]
    for p in prime_factors(m):
        terms += [(d * p, -s) for d, s in terms]
    return sum(s * (n // d) for d, s in terms)


def _walk(count: int, starts: np.ndarray, steps: np.ndarray):
    """(lo, width, offsets) for each segment of the odd-m indices [0, count).

    Index i stands for m = 2i + 1, so the odd multiples of an odd q lie q
    indices apart.  Progression j starts at index starts[j] and steps by
    steps[j]; offsets[j] is its first index >= lo, counted from lo, and
    misses the segment when it is >= width.
    """
    off = starts
    for lo in range(0, count, _SEGMENT):
        width = min(_SEGMENT, count - lo)
        yield lo, width, off.tolist()
        off = np.where(off < width, (off - width) % steps, off - width)


def odd_primes(limit: int):
    """The odd primes <= limit as int64 arrays, one segment at a time, in order.

    Each segment is sieved by the odd primes p <= sqrt(limit), read from
    this same sieve, each from p^2 on.
    """
    root = math.isqrt(max(limit, 0))
    below = odd_primes(root) if root >= 3 else ()
    base = np.concatenate([np.empty(0, dtype=np.int64), *below])
    ps = base.tolist()
    for lo, width, offsets in _walk((limit + 1) // 2, base * base // 2, base):
        composite = np.zeros(width, dtype=bool)
        for o, p in zip(offsets, ps):
            if o < width:
                composite[o::p] = True
        if lo == 0:
            composite[0] = True  # m = 1
        primes = np.flatnonzero(~composite)
        primes *= 2
        primes += 2 * lo + 1
        yield primes


def odd_phi(n: int):
    """(m, phi(m)) int64 array pairs over the odd m < 2n, one segment at a
    time, in order.

    Each segment builds two rows of one array: s, the part of m made of
    the primes p <= sqrt(2n - 1) with their full powers, so m // s is 1
    or the one prime factor of m past that root, and f = phi(s).  Each
    prime power p^k <= 2n - 1 multiplies the column of every odd multiple
    by (p, p - 1) at k = 1 and by (p, p) above, and phi(m) = f *
    max(m // s - 1, 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    top = 2 * n - 1
    powers, columns = [], []
    for ps in odd_primes(math.isqrt(top)):
        for p in ps.tolist():
            q, factor = p, p - 1
            while q <= top:
                powers.append(q)
                columns.append(np.array([[p], [factor]], dtype=np.int64))
                q, factor = q * p, p
    steps = np.array(powers, dtype=np.int64)
    for lo, width, offsets in _walk(n, steps // 2, steps):
        rows = np.ones((2, width), dtype=np.int64)
        for o, q, column in zip(offsets, powers, columns):
            if o < width:
                rows[:, o::q] *= column
        m = np.arange(2 * lo + 1, 2 * (lo + width), 2, dtype=np.int64)
        s, f = rows
        # m // s is 1 or a prime q, so phi(m) = f * max(m // s - 1, 1), written over s
        np.floor_divide(m, s, out=s)
        s -= 1
        np.maximum(s, 1, out=s)
        s *= f
        yield m, s


def odd_prime_fsum(limit: int, term) -> float:
    """Compensated sum of term(p) over the odd primes p <= limit.

    ``term`` maps a float64 array of primes to float64 terms; the primes
    are passed as floats because products such as (p-1)^2 * p overflow
    int64 once p passes ~2e6.
    """
    return math.fsum(
        chain.from_iterable(
            term(ps.astype(np.float64)).tolist() for ps in odd_primes(limit)
        )
    )


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only int64 array: 2, then the odd
    primes of the segmented sieve."""
    head = np.array([2] if limit >= 2 else [], dtype=np.int64)
    out = np.concatenate([head, *odd_primes(limit)])
    out.setflags(write=False)
    return out


def mertens_product(x: float) -> float:
    """prod over odd primes 3 <= p <= x of (1 - 1/p).

    Accumulated as a compensated sum of log1p terms; relative error is
    below 1e-13 for x <= 1e7.
    """
    if x < 3:
        raise ValueError("mertens_product requires x >= 3")
    return math.exp(odd_prime_fsum(int(math.floor(x)), lambda p: np.log1p(-1.0 / p)))
