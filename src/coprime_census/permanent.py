"""Exact permanents of 0/1 matrices.

Two routes, both returning exact Python integers:

* :func:`permanent_ryser` -- Ryser's inclusion-exclusion in class-
  compressed form: identical columns are grouped into classes and the
  sum runs over how many columns of each class are chosen, on one lane.
  The engine behind every count.
* :func:`permanent_brute` -- direct sum over all n! permutations, the
  small-n oracle.

The plain Gray-code walk over all 2^n column subsets stays as the
private oracle ``_ryser_masks``.  Arbitrary-precision integer arithmetic
throughout; there is no fixed-width fast path, so no overflow is possible.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # only an annotation here; the CLI reads the ceiling alone
    from .graph import BitMatrix

__all__ = [
    "CapacityError",
    "DEFAULT_CEILING",
    "permanent_ryser",
    "permanent_brute",
]

DEFAULT_CEILING = 40
_BRUTE_LIMIT = 10


class CapacityError(ValueError):
    """Raised when a computation would exceed an explicit size ceiling."""


def _transpose(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row bit-vectors of the transpose: bit i of result[j] is entry (i, j)."""
    return tuple(
        sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)
    )


def _class_terms(lines: tuple[int, ...]) -> int:
    """prod(c + 1) over the classes of identical ``lines``."""
    return math.prod(c + 1 for c in Counter(lines).values())


def _ryser_masks(rows: tuple[int, ...], n: int) -> int:
    """Ryser's sum over the 2^n column subsets in Gray-code order.

    Rank k visits the column subset gray(k) = k ^ (k >> 1); each step
    toggles one column, so the n row sums are updated incrementally.
    The subset parity equals k mod 2.
    """
    if n == 0:
        return 1
    if any(r == 0 for r in rows):
        return 0
    cols_rows = [[i for i in range(n) if (rows[i] >> j) & 1] for j in range(n)]
    rs = [0] * n
    g = 0
    mprod = math.prod
    sign = 1
    total = 0
    for k in range(1, 1 << n):
        b = (k & -k).bit_length() - 1
        gb = 1 << b
        g ^= gb
        if g & gb:
            for i in cols_rows[b]:
                rs[i] += 1
        else:
            for i in cols_rows[b]:
                rs[i] -= 1
        sign = -sign
        p = mprod(rs)
        if p:
            total += sign * p
    return total if n % 2 == 0 else -total


def _ryser_classes(rows: tuple[int, ...], n: int) -> int:
    """Ryser's sum over the column-class counts of ``rows``.

    Columns with the same bits form a class of size c_t, and rows with
    the same bits a class of multiplicity m_r.  The permanent is the sum
    over 0 <= k_t <= c_t of

        (-1)^(n - sum k) * prod_t C(c_t, k_t) * prod_r (sum_t k_t a_rt)^m_r,

    visited in mixed-radix reflected Gray-code order (Knuth's Algorithm
    7.2.1.1L): each step moves one k_t by one, so the row-class sums
    change by one where the class has a 1, and the signed binomial
    weight is updated by one exact multiply-divide.  prod(c_t + 1) terms.
    """
    if n == 0:
        return 1
    cols = _transpose(rows, n)
    if 0 in rows or 0 in cols:
        return 0
    row_mult = Counter(rows)
    mult = list(row_mult.values())
    first = [rows.index(row) for row in row_mult]
    col_size = Counter(cols)
    sizes = list(col_size.values())
    # hits[t]: the row classes with a 1 in column class t
    hits = [[r for r, i in enumerate(first) if (col >> i) & 1] for col in col_size]
    classes = len(sizes)
    sums = [0] * len(mult)
    k = [0] * classes
    rising = [True] * classes
    focus = list(range(classes + 1))
    weight = 1  # (-1)^(sum k) * prod_t C(c_t, k_t)
    total = 0
    mprod = math.prod
    while True:
        t = focus[0]
        focus[0] = 0
        if t == classes:
            break
        c = sizes[t]
        kt = k[t]
        if rising[t]:
            weight = -weight * (c - kt) // (kt + 1)
            kt += 1
            for r in hits[t]:
                sums[r] += 1
        else:
            weight = -weight * kt // (c - kt + 1)
            kt -= 1
            for r in hits[t]:
                sums[r] -= 1
        k[t] = kt
        if kt == 0 or kt == c:
            rising[t] = not rising[t]
            focus[t] = focus[t + 1]
            focus[t + 1] = t + 1
        total += weight * mprod(map(pow, sums, mult))
    return total if n % 2 == 0 else -total


def permanent_ryser(matrix: BitMatrix, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Exact permanent via Ryser's formula over classes of identical lines.

    The classes come from the matrix bits alone, so any 0/1 matrix is
    served.  The walk runs over the column classes of the matrix or of
    its transpose (per(A) = per(A^T)), whichever has fewer terms
    min(prod(c_col + 1), prod(c_row + 1)); at most 2^n, reached only
    when all columns and all rows differ.  Dimensions above ``ceiling``
    are refused.
    """
    n = matrix.n
    if n > ceiling:
        raise CapacityError(f"permanent dimension {n} exceeds ceiling {ceiling}")
    rows = matrix.rows
    cols = _transpose(rows, n)
    # walking the column classes of ``rows`` costs _class_terms(cols)
    if _class_terms(cols) <= _class_terms(rows):
        return _ryser_classes(rows, n)
    return _ryser_classes(cols, n)


def permanent_brute(matrix: BitMatrix) -> int:
    """Permanent as the literal sum over all n! permutations (n <= 10)."""
    n = matrix.n
    if n > _BRUTE_LIMIT:
        raise CapacityError(f"brute-force permanent limited to n <= {_BRUTE_LIMIT}")
    if n == 0:
        return 1
    rows = matrix.rows
    count = 0
    for perm in permutations(range(n)):
        for i in range(n):
            if not (rows[i] >> perm[i]) & 1:
                break
        else:
            count += 1
    return count
