"""Exact permanents of 0/1 matrices.

Two engines and one oracle, all returning exact Python integers:

* :func:`permanent_ryser` -- Ryser's inclusion-exclusion in class-
  compressed form: identical columns are grouped into classes and the
  sum runs over how many columns of each class are chosen, on one lane.
  The engine behind every count.
* :func:`permanent_minors` -- the same class walk over an (n+1) x n
  matrix, returning the permanent with each row deleted, all at once.
* :func:`permanent_dp` -- a layered DP over used-column masks, with no
  inclusion-exclusion and no classes: the exact oracle the engines are
  checked against.

Arbitrary-precision integer arithmetic throughout; there is no
fixed-width fast path, so no overflow is possible.  None of the three
takes a size cap: ``--ceiling`` is checked by the count layer
(``graph.check_ceiling``) before any matrix is built.
"""

from __future__ import annotations

import math
from collections import Counter

from .graph import BitMatrix, CapacityError

__all__ = [
    "CapacityError",
    "permanent_ryser",
    "permanent_minors",
    "permanent_dp",
]


def _transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Row bit-vectors of the transpose: bit i of result[j] is entry (i, j)."""
    return tuple(
        sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(width)
    )


def _class_terms(lines: tuple[int, ...]) -> int:
    """prod(c + 1) over the classes of identical ``lines``."""
    return math.prod(c + 1 for c in Counter(lines).values())


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


def permanent_dp(rows: tuple[int, ...]) -> int:
    """Permanent of an n x n 0/1 matrix by a DP over used-column masks.

    ``rows`` holds the n row bit-vectors (bit j of ``rows[i]`` is entry
    (i, j)).  Layer i maps each set of i used columns to the number of
    ways rows 0..i-1 can be matched into it; row i extends every set by
    one of its free columns.  At most C(n, n/2) masks per layer and
    n * 2^n steps in all, every term positive.
    """
    n = len(rows)
    if any(r >> n for r in rows):
        raise ValueError("rows must be n bit-vectors of width n")
    layer = {0: 1}
    for row in rows:
        nxt: dict[int, int] = {}
        for used, ways in layer.items():
            free = row & ~used
            while free:
                low = free & -free
                nxt[used | low] = nxt.get(used | low, 0) + ways
                free ^= low
        layer = nxt
    return layer.get((1 << n) - 1, 0)
