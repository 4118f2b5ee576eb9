"""Exact permanents of 0/1 matrices.

Three routes, all returning exact Python integers:

* :func:`permanent_ryser` -- Ryser's inclusion-exclusion in class-
  compressed form: identical columns are grouped into classes and the
  sum runs over how many columns of each class are chosen, on one lane.
  The engine behind every count.
* :func:`permanent_minors` -- the same class walk over an (n+1) x n
  matrix, returning the permanent with each row deleted, all at once.
* :func:`permanent_brute` -- direct sum over all n! permutations, the
  small-n oracle.

The plain Gray-code walk over all 2^n column subsets stays as the
private oracle ``_ryser_masks``.  Arbitrary-precision integer arithmetic
throughout; there is no fixed-width fast path, so no overflow is possible.
The engines take no size cap: ``--ceiling`` is checked by the count
layer (``graph.check_ceiling``) before any matrix is built.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations

from .graph import BitMatrix, CapacityError

__all__ = [
    "CapacityError",
    "permanent_ryser",
    "permanent_minors",
    "permanent_brute",
]

_BRUTE_LIMIT = 10


def _transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Row bit-vectors of the transpose: bit i of result[j] is entry (i, j)."""
    return tuple(
        sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(width)
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


def _ryser_classes(rows: tuple[int, ...], n: int):
    """Ryser's sum over the column classes of ``rows``, a 0/1 matrix n
    columns wide with n or n + 1 rows.

    Columns with the same bits form a class of size c_t, and rows with
    the same bits a class of multiplicity m_r.  For n rows the permanent
    is the sum over 0 <= k_t <= c_t of

        (-1)^(n - sum k) * prod_t C(c_t, k_t) * prod_r s_r^m_r,

    with row-class sums s_r = sum_t k_t a_rt, visited in mixed-radix
    reflected Gray-code order (Knuth's Algorithm 7.2.1.1L): each step
    moves one k_t by one, so the sums change by one where the class has
    a 1, the signed binomial weight is updated by one exact
    multiply-divide, and only the powers s_r^m_r of the rows the step
    hits are recomputed.  prod(c_t + 1) terms.

    For n + 1 rows the same walk returns, keyed by the bits of each
    distinct row, the permanent left when one copy of that row is
    deleted.  Deleting a row of class tau lowers m_tau by one, so a step
    of weight w adds w * s_tau^(m_tau - 1) * prod_{r != tau} s_r^m_r to
    tau.  That is F // s_tau, with F = w * prod_r s_r^m_r, when no s_r
    is 0.  When exactly one s_tau is 0 and m_tau = 1, only tau gets a
    term, the product over the other classes; otherwise the step adds
    nothing.
    """
    minors = len(rows) > n
    row_mult = Counter(rows)
    if n == 0:
        return dict.fromkeys(row_mult, 1) if minors else 1
    cols = _transpose(rows, n)
    if 0 in cols or (0 in rows and not minors):
        return dict.fromkeys(row_mult, 0) if minors else 0
    mult = list(row_mult.values())
    first = [rows.index(row) for row in row_mult]
    col_size = Counter(cols)
    sizes = list(col_size.values())
    # hits[t]: the row classes with a 1 in column class t
    hits = [[r for r, i in enumerate(first) if (col >> i) & 1] for col in col_size]
    classes = len(sizes)
    sums = [0] * len(mult)
    powers = [0] * len(mult)  # s_r^m_r
    k = [0] * classes
    rising = [True] * classes
    focus = list(range(classes + 1))
    weight = 1  # (-1)^(sum k) * prod_t C(c_t, k_t)
    total = 0
    totals = [0] * len(mult)  # per row class, for n + 1 rows
    row_classes = range(len(mult))
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
            d = 1
        else:
            weight = -weight * kt // (c - kt + 1)
            kt -= 1
            d = -1
        k[t] = kt
        if kt == 0 or kt == c:
            rising[t] = not rising[t]
            focus[t] = focus[t + 1]
            focus[t + 1] = t + 1
        for r in hits[t]:
            s = sums[r] + d
            sums[r] = s
            powers[r] = s ** mult[r]
        f = weight * mprod(powers)
        if not minors:
            total += f
        elif f:
            for r in row_classes:
                totals[r] += f // sums[r]
        elif sums.count(0) == 1:
            r = sums.index(0)
            if mult[r] == 1:
                totals[r] += weight * mprod(powers[:r]) * mprod(powers[r + 1 :])
    sign = 1 if n % 2 == 0 else -1
    if minors:
        return {row: sign * x for row, x in zip(row_mult, totals)}
    return sign * total


def permanent_ryser(matrix: BitMatrix) -> int:
    """Exact permanent via Ryser's formula over classes of identical lines.

    The classes come from the matrix bits alone, so any 0/1 matrix is
    served.  The walk runs over the column classes of the matrix or of
    its transpose (per(A) = per(A^T)), whichever has fewer terms
    min(prod(c_col + 1), prod(c_row + 1)); at most 2^n, reached only
    when all columns and all rows differ.
    """
    n = matrix.n
    rows = matrix.rows
    cols = _transpose(rows, n)
    # walking the column classes of ``rows`` costs _class_terms(cols)
    if _class_terms(cols) <= _class_terms(rows):
        return _ryser_classes(rows, n)
    return _ryser_classes(cols, n)


def permanent_minors(rows: tuple[int, ...]) -> list[int]:
    """Permanents of an (n+1) x n 0/1 matrix with one row deleted, for
    every row, from one class walk.

    ``rows`` holds the n+1 row bit-vectors (bit j of ``rows[i]`` is entry
    (i, j)); entry i of the result is the permanent of the n-square
    matrix without row i.  The walk runs over the column classes, so it
    costs prod(c_col + 1) terms for all rows together.
    """
    n = len(rows) - 1
    if n < 0 or any(r >> n for r in rows):
        raise ValueError("rows must be n+1 bit-vectors of width n")
    by_row = _ryser_classes(tuple(rows), n)
    return [by_row[row] for row in rows]


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
