"""The 0/1 incidence matrices whose permanents we count, and their size rule.

Each count's matrix is defined once, by :func:`incidence`: its row
labels, its column labels and the arithmetic predicate that sets entry
(i, j) on ``(labels_row[i], labels_col[j])``.  The count layer groups
those labels into the class tables it walks; :func:`matrix` sets the
bits of the same definition into an immutable :class:`BitMatrix` for
``--method permanent``, the brute routes and ``--dump-matrix``.

The size rule lives here too: :func:`count_dimension` and the ceiling
that caps it.  The count layer and the CLI's cache-hit branch are its
only callers (the permanent engines take no cap), so a cached count
checks ``--ceiling`` without loading the permanent engine.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, gcd

__all__ = [
    "smallest_factor",
    "check_aux",
    "CapacityError",
    "DEFAULT_CEILING",
    "check_ceiling",
    "count_dimension",
    "BitMatrix",
    "anti_labels",
    "incidence",
    "matrix",
]


def smallest_factor(m: int) -> int:
    """Smallest prime factor of ``m >= 2``, by trial division.

    The one scalar factoring rule: matrix labels, table lists and
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
    the one :func:`incidence` that reads it."""
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
    """0/1 matrix of n columns and any number of rows, stored as integer
    bit-vectors.

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
        if len(labels_row) != len(rows) or len(labels_col) != n:
            raise ValueError("label count does not match the matrix shape")
        mask = (1 << n) - 1
        for r in rows:
            if r & ~mask:
                raise ValueError("row has bits outside the matrix width")
        return super().__new__(cls, n, rows, labels_row, labels_col)

    def to_text(self) -> str:
        """Canonical textual dump (stable format, used by --dump-matrix).

        Two label lines followed by one line of n characters from {0,1}
        per row::

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


def anti_labels(n: int) -> list[int]:
    """2..n with the primes in (n/2, n] removed.

    Each such prime is a forced fixed point: its only multiple up to n
    is itself.  So is 1, which is why the labels start at 2; n = 1 has
    none, the 0 x 0 matrix, whose permanent is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [m for m in range(2, n + 1) if not (2 * m > n and smallest_factor(m) == m)]


def _coprime(x: int, y: int) -> bool:
    return gcd(x, y) == 1


def _share_a_prime(x: int, y: int) -> bool:
    return gcd(x, y) > 1


def incidence(kind: str, n: int, aux: int | None = None):
    """``(row labels, column labels, pred)`` of the 0/1 matrix behind the
    count ``kind`` at (n, aux): entry (i, j) is set iff
    ``pred(rows[i], cols[j])``.

    * c: [n] against [n], gcd = 1;
    * c0: the first n odd numbers against [n], gcd = 1;
    * ca: the first n + 1 odd numbers against [n], gcd = 1, the (n+1) x n
      matrix whose row minors are the C_(a)(n);
    * a: :func:`anti_labels` against themselves, gcd > 1;
    * ck (aux = k >= 2): [n] against [n], gcd(x, y, min(k, n)!) = 1 (a
      prime above n divides no label).

    c1 is a sum of permanents, not one, so it and every unknown kind
    raise ``ValueError``.
    """
    check_aux(kind, aux)
    if kind not in ("c", "c0", "ca", "a", "ck"):
        raise ValueError(f"kind {kind!r} is not the permanent of one matrix")
    if n < 1:
        raise ValueError("n must be >= 1")
    span = range(1, n + 1)
    if kind == "c0":
        return range(1, 2 * n, 2), span, _coprime
    if kind == "ca":
        return range(1, 2 * n + 2, 2), span, _coprime
    if kind == "a":
        labels = anti_labels(n)
        return labels, labels, _share_a_prime
    if kind == "ck":
        if aux < 2:
            raise ValueError("k must be >= 2")
        f = factorial(min(aux, n))
        return span, span, lambda x, y: gcd(x, y, f) == 1
    return span, span, _coprime


def matrix(kind: str, n: int, aux: int | None = None) -> BitMatrix:
    """The :class:`BitMatrix` of :func:`incidence`, one bit per cell."""
    xs, ys, pred = incidence(kind, n, aux)
    rows = tuple(sum(pred(x, y) << j for j, y in enumerate(ys)) for x in xs)
    return BitMatrix(len(ys), rows, tuple(xs), tuple(ys))
