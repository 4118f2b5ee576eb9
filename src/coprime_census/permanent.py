"""Exact permanents of 0/1 matrices.

Two routes, both returning exact Python integers:

* :func:`permanent_ryser` -- Ryser's inclusion-exclusion with a Gray-code
  subset walk, split across one process lane per CPU from dimension 16
  up.  The engine behind every count; no caller sets the lane count.
* :func:`permanent_brute` -- direct sum over all n! permutations, the
  small-n oracle.

Arbitrary-precision integer arithmetic throughout; there is no
fixed-width fast path, so no overflow is possible.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations

from .graph import BitMatrix

__all__ = [
    "CapacityError",
    "DEFAULT_CEILING",
    "permanent_ryser",
    "permanent_brute",
]

DEFAULT_CEILING = 40
_BRUTE_LIMIT = 10
# below this dimension, process lanes cost more than they save
_PARALLEL_MIN_DIM = 16


class CapacityError(ValueError):
    """Raised when a computation would exceed an explicit size ceiling."""


def _column_rows(rows: tuple[int, ...], n: int) -> list[list[int]]:
    return [[i for i in range(n) if (rows[i] >> j) & 1] for j in range(n)]


def _ryser_lane(cols_rows: list[list[int]], n: int, lo: int, hi: int) -> int:
    """Signed subtotal of Ryser's sum over subset ranks lo..hi-1.

    Rank k corresponds to the column subset gray(k) = k ^ (k >> 1); each
    step toggles a single column, so the n partial row sums are updated
    incrementally.  The subset parity equals k mod 2.
    """
    rs = [0] * n
    g = lo ^ (lo >> 1)
    for j in range(n):
        if (g >> j) & 1:
            for i in cols_rows[j]:
                rs[i] += 1
    mprod = math.prod
    sign = -1 if (lo & 1) else 1
    total = 0
    p = mprod(rs)
    if p:
        total = sign * p
    for k in range(lo + 1, hi):
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
    return total


def _ryser_masks(rows: tuple[int, ...], n: int, lanes: int) -> int:
    """Ryser's sum over the 2^n column subsets, split into ``lanes`` ranges."""
    if n == 0:
        return 1
    if any(r == 0 for r in rows):
        return 0
    cols_rows = _column_rows(rows, n)
    size = 1 << n
    if lanes == 1:
        total = _ryser_lane(cols_rows, n, 0, size)
    else:
        bounds = [size * i // lanes for i in range(lanes + 1)]
        with ProcessPoolExecutor(max_workers=lanes) as pool:
            futures = [
                pool.submit(_ryser_lane, cols_rows, n, bounds[i], bounds[i + 1])
                for i in range(lanes)
            ]
            # deterministic reduction: sum in lane order
            total = sum(f.result() for f in futures)
    return total if n % 2 == 0 else -total


def permanent_ryser(matrix: BitMatrix, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Exact permanent via Ryser's formula with Gray-code updates.

    Cost is Theta(2^n * n); dimensions above ``ceiling`` are refused so
    the exponential cost is always an explicit caller decision.  The walk
    runs on one lane per CPU from dimension ``_PARALLEL_MIN_DIM`` up.
    """
    n = matrix.n
    if n > ceiling:
        raise CapacityError(
            f"permanent dimension {n} exceeds ceiling {ceiling} (cost 2^n)"
        )
    lanes = (os.cpu_count() or 1) if n >= _PARALLEL_MIN_DIM else 1
    return _ryser_masks(matrix.rows, n, lanes)


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
