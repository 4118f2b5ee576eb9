"""Exact permanents of 0/1 matrices.

Two engines and one oracle, all returning exact Python integers:

* :func:`permanent_ryser` -- Glynn's formula in class-compressed form:
  identical columns are grouped into classes and the sum runs over how
  many columns of each class carry a -1, over half the sign vectors
  (flipping every sign keeps each term), on one lane.  The engine
  behind every count.  It keeps the name of the Ryser sum it replaced,
  since the benchmark's tracing wraps ``counts.permanent_ryser`` by name.
* :func:`permanent_minors` -- the same class walk over an (n+1) x n
  matrix, returning the permanent with each row deleted, all at once.
* :func:`permanent_dp` -- a layered DP over used-column masks, with no
  signed sum and no classes: the exact oracle the engines are checked
  against.

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


def _glynn_classes(rows: tuple[int, ...], cols: tuple[int, ...]):
    """Glynn's sum over the column classes of a 0/1 matrix with n columns
    and n or n + 1 rows, given both ways: ``rows`` holds its row
    bit-vectors and ``cols = _transpose(rows, n)`` its column bit-vectors.

    Glynn's formula is per(A) = 2^-n sum over delta in {+1, -1}^n of
    prod_j delta_j * prod_i sum_j a_ij delta_j.  Columns with the same
    bits form a class of size c_t, and rows with the same bits a class
    of multiplicity m_r.  With k_t the -1s of column class t, the
    permanent of n rows is 2^-n times the sum over 0 <= k_t <= c_t of

        prod_t (-1)^k_t C(c_t, k_t) * prod_r s_r^m_r,

    with row-class sums s_r = sum_t (c_t - 2 k_t) a_rt, which start at
    the row degrees.  delta -> -delta leaves every term as it is, so
    only half the sum is walked and it is shifted right by n - 1: the
    smallest odd class h stops at k_h = (c_h - 1) / 2 (a class of one
    column stays at +1 and drops out of the walk), or, when no class is
    odd, one column of the smallest class stays at +1.  That is
    prod(c_t + 1) / 2 terms when a class is odd.  The terms are visited
    in mixed-radix reflected Gray-code order (Knuth's Algorithm
    7.2.1.1L): each step moves one k_t by one, so the sums move by 2
    where the class has a 1, the signed binomial weight is updated by
    one exact multiply-divide, and only the powers s_r^m_r of the rows
    the step hits are recomputed.

    For n + 1 rows the same walk returns, keyed by the bits of each
    distinct row, the permanent left when one copy of that row is
    deleted; each such n-row term is also kept by delta -> -delta.
    Deleting a row of class tau lowers m_tau by one, so a term of weight
    w adds w * s_tau^(m_tau - 1) * prod_{r != tau} s_r^m_r to tau.  That
    is F // s_tau, with F = w * prod_r s_r^m_r, when no s_r is 0.  When
    exactly one s_tau is 0 and m_tau = 1, only tau gets a term, the
    product over the other classes; otherwise the term adds nothing.
    """
    n = len(cols)
    minors = len(rows) > n
    row_mult = Counter(rows)
    if n == 0:
        return dict.fromkeys(row_mult, 1) if minors else 1
    if 0 in cols or (0 in rows and not minors):
        return dict.fromkeys(row_mult, 0) if minors else 0
    mult = list(row_mult.values())
    first = [rows.index(row) for row in row_mult]
    col_size = Counter(cols)
    sizes = list(col_size.values())
    # hits[t]: the row classes with a 1 in column class t
    hits = [[r for r, i in enumerate(first) if (col >> i) & 1] for col in col_size]
    # the half walk: h is the smallest odd class, else the smallest class
    h = min(range(len(sizes)), key=lambda t: (1 - sizes[t] % 2, sizes[t]))
    tops = sizes[:]  # the largest k_t walked
    if sizes[h] % 2:
        tops[h] //= 2
    else:
        sizes[h] -= 1
        tops[h] -= 1
    if not tops[h]:
        del sizes[h], tops[h], hits[h]
    classes = len(sizes)
    sums = [row.bit_count() for row in row_mult]  # every delta at +1
    powers = [s**m for s, m in zip(sums, mult)]  # s_r^m_r
    k = [0] * classes
    rising = [True] * classes
    focus = list(range(classes + 1))
    weight = 1  # (-1)^(sum k) * prod_t C(c_t, k_t)
    total = 0
    totals = [0] * len(mult)  # per row class, for n + 1 rows
    row_classes = range(len(mult))
    mprod = math.prod
    while True:
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
        t = focus[0]
        if t == classes:
            break
        focus[0] = 0
        c = sizes[t]
        kt = k[t]
        if rising[t]:
            weight = -weight * (c - kt) // (kt + 1)
            kt += 1
            d = -2
        else:
            weight = -weight * kt // (c - kt + 1)
            kt -= 1
            d = 2
        k[t] = kt
        if kt == 0 or kt == tops[t]:
            rising[t] = not rising[t]
            focus[t] = focus[t + 1]
            focus[t + 1] = t + 1
        for r in hits[t]:
            s = sums[r] + d
            sums[r] = s
            powers[r] = s ** mult[r]
    if minors:
        return {row: x >> (n - 1) for row, x in zip(row_mult, totals)}
    return total >> (n - 1)


def permanent_ryser(matrix: BitMatrix) -> int:
    """Exact permanent via Glynn's formula over classes of identical lines
    (:func:`_glynn_classes`).

    The classes come from the matrix bits alone, so any 0/1 matrix is
    served.  The walk runs over the column classes of the matrix or of
    its transpose (per(A) = per(A^T)), the side with the smaller
    prod(c + 1); it walks half of that when a class has odd size, so at
    most 2^(n-1) terms, reached only when all columns and all rows
    differ.
    """
    rows = matrix.rows
    cols = _transpose(rows, matrix.n)
    # walking the column classes of ``rows`` costs _class_terms(cols)
    if _class_terms(cols) <= _class_terms(rows):
        return _glynn_classes(rows, cols)
    return _glynn_classes(cols, rows)


def permanent_minors(rows: tuple[int, ...]) -> list[int]:
    """Permanents of an (n+1) x n 0/1 matrix with one row deleted, for
    every row, from one class walk.

    ``rows`` holds the n+1 row bit-vectors (bit j of ``rows[i]`` is entry
    (i, j)); entry i of the result is the permanent of the n-square
    matrix without row i.  Glynn's class walk (:func:`_glynn_classes`)
    runs over the column classes, so it costs prod(c_col + 1) / 2 terms
    for all rows together when a class has odd size.
    """
    n = len(rows) - 1
    if n < 0 or any(r >> n for r in rows):
        raise ValueError("rows must be n+1 bit-vectors of width n")
    by_row = _glynn_classes(rows, _transpose(rows, n))
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
