"""Builders for the 0/1 incidence matrices whose permanents we count.

Every builder is a pure function of its arguments; the produced
:class:`BitMatrix` is immutable, carries explicit row/column labels, and
sets bit (i, j) exactly when the builder's arithmetic predicate holds on
``(labels_row[i], labels_col[j])``.  :func:`odd_plus_rows` is the one
non-square matrix, given by its row bit-vectors alone.

The size rule lives here too: :func:`count_dimension` and the ceiling
that caps it.  The count layer and the CLI's cache-hit branch are its
only callers (the permanent engines take no cap), so a cached count
checks ``--ceiling`` without loading the permanent engine.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

__all__ = [
    "smallest_factor",
    "check_aux",
    "CapacityError",
    "DEFAULT_CEILING",
    "check_ceiling",
    "count_dimension",
    "BitMatrix",
    "build_full_coprime",
    "build_odd_half",
    "build_odd_plus_excluding",
    "odd_plus_rows",
    "anti_labels",
    "build_anti",
    "build_gcd_k",
]


def smallest_factor(m: int) -> int:
    """Smallest prime factor of ``m >= 2``, by trial division.

    The one scalar factoring rule: builders, table lists and
    ``arith.coprime_count`` (so phi(m) = F(m, m)) use it on numbers up to
    a few hundred, where trial division beats a sieve and keeps numpy
    unloaded.  Its test oracle is ``arith.primes_upto``, the numpy sieve.
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


def check_aux(kind: str, aux: int | None) -> None:
    """Refuse an ``aux`` the count does not read: k is for kind 'ck' only,
    whose matrix :func:`build_gcd_k` is the one builder that reads it."""
    if kind == "ck" and aux is None:
        raise ValueError("kind 'ck' needs --aux K")
    if kind != "ck" and aux is not None:
        raise ValueError(f"--aux is only read by kind 'ck', not {kind!r}")


DEFAULT_CEILING = 40


class CapacityError(ValueError):
    """Raised when a computation would exceed an explicit size ceiling."""


def check_ceiling(dim: int, ceiling: int) -> None:
    """Refuse a permanent of dimension ``dim`` past ``ceiling``."""
    if dim > ceiling:
        raise CapacityError(f"permanent dimension {dim} exceeds ceiling {ceiling}")


def count_dimension(kind: str, n: int) -> int:
    """Largest permanent dimension behind the count ``kind`` at n, the
    size that ``--ceiling`` caps: C(n) reduces to permanents of dimension
    n // 2, A(n) to its reduced matrix on :func:`anti_labels`, and every
    other kind is an n-square permanent."""
    if kind == "c":
        return n // 2
    if kind == "a":
        return len(anti_labels(n))
    return n


class BitMatrix(namedtuple("BitMatrix", "n rows labels_row labels_col")):
    """Square 0/1 matrix with rows stored as integer bit-vectors.

    Bit j of ``rows[i]`` is entry (i, j).  ``labels_row[i]`` and
    ``labels_col[j]`` record which integer each index stands for.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        rows: tuple[int, ...],
        labels_row: tuple[int, ...],
        labels_col: tuple[int, ...],
    ):
        if len(rows) != n:
            raise ValueError("row count does not match dimension")
        if len(labels_row) != n or len(labels_col) != n:
            raise ValueError("label count does not match dimension")
        mask = (1 << n) - 1
        for r in rows:
            if r & ~mask:
                raise ValueError("row has bits outside the matrix width")
        return super().__new__(cls, n, rows, labels_row, labels_col)

    def to_text(self) -> str:
        """Canonical textual dump (stable format, used by --dump-matrix).

        Two label lines followed by n lines of n characters from {0,1}::

            rows: <labels_row, space separated>
            cols: <labels_col, space separated>
            <bit (0,0)><bit (0,1)>...
            ...
        """
        lines = [
            "rows: " + " ".join(str(v) for v in self.labels_row),
            "cols: " + " ".join(str(v) for v in self.labels_col),
        ]
        for r in self.rows:
            lines.append("".join("1" if (r >> j) & 1 else "0" for j in range(self.n)))
        return "\n".join(lines)


def _from_predicate(row_labels, col_labels, pred) -> BitMatrix:
    rows = []
    for a in row_labels:
        mask = 0
        for j, b in enumerate(col_labels):
            if pred(a, b):
                mask |= 1 << j
        rows.append(mask)
    return BitMatrix(
        n=len(row_labels),
        rows=tuple(rows),
        labels_row=tuple(row_labels),
        labels_col=tuple(col_labels),
    )


def build_full_coprime(n: int) -> BitMatrix:
    """n x n matrix over labels 1..n with bit (i, j) iff gcd(i, j) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = range(1, n + 1)
    return _from_predicate(labels, labels, lambda a, b: gcd(a, b) == 1)


def build_odd_half(n: int) -> BitMatrix:
    """Rows labeled 1,3,...,2n-1; columns 1..n; bit iff coprime."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _from_predicate(
        range(1, 2 * n, 2), range(1, n + 1), lambda a, b: gcd(a, b) == 1
    )


def build_odd_plus_excluding(n: int, a: int) -> BitMatrix:
    """Rows 1..n; columns the first n+1 odd numbers minus {a}; bit iff coprime."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if a % 2 == 0 or not 1 <= a <= 2 * n + 1:
        raise ValueError(f"a={a} must be odd and within 1..{2 * n + 1}")
    cols = [v for v in range(1, 2 * n + 2, 2) if v != a]
    return _from_predicate(range(1, n + 1), cols, lambda x, y: gcd(x, y) == 1)


def odd_plus_rows(n: int) -> tuple[int, ...]:
    """The (n+1) x n matrix of the first n+1 odd numbers against 1..n.

    Row i stands for 2i+1, and its bit j - 1 is set iff gcd(2i+1, j) = 1.
    Deleting the row of a leaves the transpose of
    ``build_odd_plus_excluding(n, a)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        sum(1 << (j - 1) for j in range(1, n + 1) if gcd(v, j) == 1)
        for v in range(1, 2 * n + 2, 2)
    )


def anti_labels(n: int) -> list[int]:
    """2..n with the primes in (n/2, n] removed.

    Each such prime is a forced fixed point: its only multiple up to n
    is itself.  So is 1, which is why the labels start at 2; n = 1 has
    none, the 0 x 0 matrix, whose permanent is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [m for m in range(2, n + 1) if not (2 * m > n and smallest_factor(m) == m)]


def build_anti(n: int) -> BitMatrix:
    """Reduced anti-coprime matrix on :func:`anti_labels`: bit iff gcd > 1."""
    labels = anti_labels(n)
    return _from_predicate(labels, labels, lambda x, y: gcd(x, y) > 1)


def build_gcd_k(n: int, k: int) -> BitMatrix:
    """n x n matrix with bit (i, j) iff gcd(i, j, k!) = 1.

    Evaluated as "no prime p <= k divides both i and j", which avoids
    forming k! at all.  A prime above n divides no label, so only primes
    up to min(k, n) are listed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    small_primes = [p for p in range(2, min(k, n) + 1) if smallest_factor(p) == p]

    def pred(a: int, b: int) -> bool:
        g = gcd(a, b)
        return all(g % p for p in small_primes)

    return _from_predicate(range(1, n + 1), range(1, n + 1), pred)
