"""The 0/1 incidence matrices whose permanents we count, and their size rule.

Every kind's count is the permanent of one matrix, defined once by
:func:`incidence`: its labels and the rule that sets entry (i, j), which
reads only the primes the two labels share (:func:`prime_factors`).
The count layer builds the class tables it walks from one bitmask per
prime, ``--method permanent`` too.  :func:`matrix` sets the bits of the
same rule by a gcd test, as a tuple of row ints that no engine walks,
and :func:`dump` prints them with their labels for ``--dump-matrix``.

The admission rule lives here too: :func:`admit` refuses a count
request that is malformed or past ``--ceiling``.  A ceiling is read only
where a request enters (``counts.compute``, ``counts.table_rows``, the
CLI before it opens the cache), so a cached count is checked without
loading the permanent engine; :func:`incidence` admits with none.
"""

from __future__ import annotations

import functools
from math import gcd, inf

__all__ = [
    "smallest_factor",
    "prime_factors",
    "KINDS",
    "CapacityError",
    "DEFAULT_CEILING",
    "BRUTE_MAX",
    "admit",
    "anti_labels",
    "incidence",
    "matrix",
    "dump",
]


def smallest_factor(m: int) -> int:
    """Smallest prime factor of ``m >= 2``, by trial division.

    The one scalar factoring rule: matrix labels, table lists and
    :func:`prime_factors` use it on numbers up to a few thousand, where
    trial division beats a sieve and keeps numpy unloaded.  Its test
    oracle is ``arith.primes_upto``, the numpy sieve.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m % 2 == 0:
        return 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


@functools.cache
def prime_factors(m: int) -> tuple[int, ...]:
    """The distinct primes of ``m >= 1``, smallest first (none for 1): the
    one fact about a label that every matrix rule reads."""
    primes = []
    while m > 1:
        p = smallest_factor(m)
        primes.append(p)
        while m % p == 0:
            m //= p
    return tuple(primes)


KINDS = ("c", "c0", "c1", "a", "ck")
DEFAULT_CEILING = 40
BRUTE_MAX = 12  # the one size limit of every brute route


class CapacityError(ValueError):
    """Raised when a computation would exceed an explicit size ceiling."""


def admit(
    kind: str,
    n: int,
    aux: int | None = None,
    *,
    method: str = "auto",
    ceiling: int = DEFAULT_CEILING,
) -> None:
    """Refuse the count ``kind`` at (n, aux) by ``method`` unless it is
    well formed and within ``ceiling``.

    ``ValueError`` for a kind outside :data:`KINDS`, a method outside
    auto | permanent | brute, a ck without aux = k >= 2 or an aux on any
    other kind, n < 1 and a negative ceiling.  ``CapacityError`` when the
    largest permanent behind the count is larger than ``ceiling``:
    dimension n // 2 for C(n) by its reduction, the reduced matrix on
    :func:`anti_labels` for A(n) unless brute ("at least" a bound with no
    trial division, far past it), n + 1 for C1(n) under auto and
    permanent (its square matrix), and n otherwise (a brute DP runs over
    n rows); and for brute past n = 12.  Only the request entries pass a
    ceiling; :func:`incidence` and the brute oracle pass ``inf``.
    """
    if kind not in KINDS:
        raise ValueError(f"no kind {kind!r}; the kinds are {', '.join(KINDS)}")
    if method not in ("auto", "permanent", "brute"):
        raise ValueError(f"kind {kind!r} has no method {method!r}")
    if kind == "ck" and (aux is None or aux < 2):
        raise ValueError("kind 'ck' needs --aux K >= 2")
    if kind != "ck" and aux is not None:
        raise ValueError(f"--aux is only read by kind 'ck', not {kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if ceiling < 0:
        raise ValueError(f"the ceiling must be >= 0, not {ceiling}")
    if kind == "c" and method == "auto":
        dim = n // 2
    elif kind == "a" and method != "brute":
        # 2..n less the primes in (n/2, n]: at least n - 1 less its odd m, and 2 at n <= 3
        dim = n - 1 - ((n + 1) // 2 - (n // 2 + 1) // 2) - (n in (2, 3))
        if dim > ceiling:
            raise CapacityError(f"permanent dimension at least {dim} exceeds ceiling {ceiling}")
        if n - 1 > ceiling:
            dim = len(anti_labels(n))
    else:
        dim = n + (kind == "c1" and method != "brute")
    if dim > ceiling:
        raise CapacityError(f"permanent dimension {dim} exceeds ceiling {ceiling}")
    if method == "brute" and n > BRUTE_MAX:
        raise CapacityError(f"brute enumeration limited to n <= {BRUTE_MAX}")


def anti_labels(n: int) -> list[int]:
    """2..n with the primes in (n/2, n] removed.

    Each such prime is a forced fixed point: its only multiple up to n
    is itself.  So is 1, which is why the labels start at 2; n = 1 has
    none, the 0 x 0 matrix, whose permanent is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [m for m in range(2, n + 1) if not (2 * m > n and smallest_factor(m) == m)]


def incidence(kind: str, n: int, aux: int | None = None):
    """``(row labels, column labels, share, bound)`` of the 0/1 matrix
    behind the count ``kind`` at (n, aux): entry (i, j) is set iff
    ``rows[i]`` and ``cols[j]`` have a common prime <= ``bound`` exactly
    when ``share`` is true.  A prime above n divides no column label.

    * c: [n] against [n], no common prime <= n (gcd = 1);
    * c0: the first n odd numbers against [n], gcd = 1;
    * ca: the first n + 1 odd numbers against [n], gcd = 1, the (n+1) x n
      matrix whose row minors are the C_(a)(n);
    * c1: the first n + 1 odd numbers against 1, 1, 2, ..., n, gcd = 1, the
      ca matrix with column 1 twice, whose permanent sums the C_(a)(n);
    * a: :func:`anti_labels` against themselves, one <= n (gcd > 1);
    * ck (aux = k >= 2): [n] against [n], none <= min(k, n) (gcd with k!
      is 1).

    :func:`admit` refuses a malformed request (ca as c0), with no ceiling.
    """
    admit("c0" if kind == "ca" else kind, n, aux, ceiling=inf)
    span, odd = range(1, n + 1), range(1, 2 * n + 2, 2)
    if kind in ("c0", "ca"):
        return odd[: n + (kind == "ca")], span, False, n
    if kind == "c1":
        return odd, (1, *span), False, n
    if kind == "a":
        labels = anti_labels(n)
        return labels, labels, True, n
    return span, span, False, min(aux, n) if kind == "ck" else n


def matrix(kind: str, n: int, aux: int | None = None) -> tuple[int, ...]:
    """The rows of :func:`incidence`'s matrix as bit-vectors, bit j of row
    i for entry (i, j), each set by its own gcd test rather than the prime
    masks of the counts."""
    xs, ys, share, bound = incidence(kind, n, aux)
    bit = lambda g: (g > 1 and smallest_factor(g) <= bound) == share
    return tuple(sum(bit(gcd(x, y)) << j for j, y in enumerate(ys)) for x in xs)


def dump(kind: str, n: int, aux: int | None = None) -> str:
    """The ``--dump-matrix`` text: a ``rows:`` and a ``cols:`` line of
    :func:`incidence`'s labels, space separated, then each row of
    :func:`matrix` as one 0/1 character per column."""
    xs, ys, _, _ = incidence(kind, n, aux)
    lines = ["rows: " + " ".join(map(str, xs)), "cols: " + " ".join(map(str, ys))]
    lines += ("".join("01"[r >> j & 1] for j in range(len(ys))) for r in matrix(kind, n, aux))
    return "\n".join(lines)
