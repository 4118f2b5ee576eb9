"""Exact permanents of 0/1 matrices.

Both engines walk a matrix as its class table (:class:`ClassTable`):
classes of identical rows with their multiplicities, classes of
identical columns with their sizes, and which blocks are all ones.  The
count layer builds each table from the labels of its matrix; given a
plain 0/1 matrix, :func:`permanent_ryser` groups its bits into the same
table with :func:`class_table`.

* :func:`permanent_ryser` -- Glynn's formula in class-compressed form:
  the sum runs over how many columns of each class carry a -1, over
  half the sign vectors (flipping every sign keeps each term), on one
  lane.  The engine behind every count.  It keeps the name of the Ryser
  sum it replaced, since the benchmark's tracing wraps
  ``counts.permanent_ryser`` by name.
* :func:`permanent_minors` -- the same class walk over an (n+1) x n
  matrix, returning the permanent with each row deleted, all at once.
* :func:`permanent_dp` -- a layered DP over used-column masks, with no
  signed sum and no classes: the exact oracle the engines are checked
  against.

Arbitrary-precision integer arithmetic throughout; there is no
fixed-width fast path, so no overflow is possible.  None of the three
takes a size cap: ``--ceiling`` is checked by the count layer
(``graph.check_ceiling``) before any table is built.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

__all__ = [
    "ClassTable",
    "class_table",
    "permanent_ryser",
    "permanent_minors",
    "permanent_dp",
]


# A 0/1 matrix with n columns, by its classes of identical lines: row
# class r stands for mult[r] equal rows and column class t for sizes[t]
# equal columns, and bit r of cols[t] is set iff their block is all ones.
# No two classes of one side have equal lines.  row_class[i] is the class
# of input row i.
ClassTable = namedtuple("ClassTable", "n mult sizes cols row_class")


def class_table(lines, widths) -> ClassTable:
    """The class table of the 0/1 matrix whose row i holds bit t of
    ``lines[i]`` in each of ``widths[t]`` columns.

    Rows with equal lines form a row class, and column groups with equal
    bits over the row classes a column class: one pass over the distinct
    lines per group.  A plain 0/1 matrix is ``class_table(rows, [1] * n)``.
    """
    mult = Counter(lines)
    sizes = {}
    for t, w in enumerate(widths):
        col = sum(((line >> t) & 1) << r for r, line in enumerate(mult))
        sizes[col] = sizes.get(col, 0) + w
    return ClassTable(
        sum(widths), tuple(mult.values()), tuple(sizes.values()), tuple(sizes),
        tuple(map([*mult].index, lines)),
    )


def _transpose(table: ClassTable) -> ClassTable:
    """The class table of the transpose, read from the blocks: column
    class t becomes a class of sizes[t] equal rows and row class r a
    class of mult[r] columns.  Lines that differ in the table differ in
    its transpose, so no class merges and no bit is regrouped."""
    _, mult, sizes, cols, _ = table
    lines = tuple(sum((col >> r & 1) << t for t, col in enumerate(cols)) for r in range(len(mult)))
    row_class = tuple(t for t, c in enumerate(sizes) for _ in range(c))
    return ClassTable(sum(mult), sizes, mult, lines, row_class)


def _half(sizes) -> tuple[list[int], int]:
    """The largest k_t Glynn's half walk reaches in each column class
    (:func:`_glynn_classes`), and its terms, prod(k_t + 1) over them.

    k_t runs to c_t, except that the smallest odd class stops at
    (c - 1) / 2, or, when every class is even, one column of the
    smallest class stays at +1 and the class stops at c - 1: the walk
    takes prod(c + 1) / 2 terms when a class is odd, else
    prod(c + 1) * c / (c + 1) for the smallest class c.
    """
    odd = [c for c in sizes if c % 2]
    tops = list(sizes)
    h = tops.index(min(odd or tops))
    tops[h] = tops[h] // 2 if odd else tops[h] - 1
    return tops, math.prod(t + 1 for t in tops)


def _glynn_classes(table: ClassTable):
    """Glynn's sum over the column classes of a class table with n
    columns and n or n + 1 rows.

    Glynn's formula is per(A) = 2^-n sum over delta in {+1, -1}^n of
    prod_j delta_j * prod_i sum_j a_ij delta_j.  With k_t the -1s of
    column class t (size c_t) and m_r the multiplicity of row class r,
    the permanent of n rows is 2^-n times the sum over 0 <= k_t <= c_t of

        prod_t (-1)^k_t C(c_t, k_t) * prod_r s_r^m_r,

    with row-class sums s_r = sum_t (c_t - 2 k_t) a_rt, which start at
    the row degrees.  delta -> -delta leaves every term as it is, so
    only half the sum is walked and it is shifted right by n - 1: the
    smallest odd class h stops at k_h = (c_h - 1) / 2 (a class of one
    column stays at +1 and drops out of the walk), or, when no class is
    odd, one column of the smallest class stays at +1
    (:func:`_half`).  The terms are visited in mixed-radix
    reflected Gray-code order (Knuth's Algorithm 7.2.1.1L): each step
    moves one k_t by one, so the sums move by 2 where the class has a 1,
    the signed binomial weight is updated by one exact multiply-divide,
    and only the powers s_r^m_r of the rows the step hits are read
    again, from a table of every sum the row can take.  The classes are
    ordered by how many row classes they hit, fewest first, so the
    class that moves most often touches the fewest rows.

    For n + 1 rows the same walk sums, per row class, the permanent left
    when one of its rows is deleted, and returns it for each input row in
    the order of ``row_class``; each such n-row term is also kept by
    delta -> -delta.  Deleting a row of class tau lowers m_tau
    by one, so a term of weight w adds
    w * s_tau^(m_tau - 1) * prod_{r != tau} s_r^m_r to tau.  That is
    F // s_tau, with F = w * prod_r s_r^m_r, when no s_r is 0.  When
    exactly one s_tau is 0 and m_tau = 1, only tau gets a term, the
    product over the other classes; otherwise the term adds nothing.
    """
    n, mult, sizes, cols, row_class = table
    row_classes = range(len(mult))
    minors = sum(mult) > n
    if n == 0:
        return [1] * len(row_class) if minors else 1
    sums = [0] * len(mult)  # every delta at +1: the row degrees
    least = [0] * len(mult)  # every k_t at its largest value walked
    pows = [[] for _ in row_classes]  # pows[r][s] = s^m_r, filled below
    # walk[t] = (c_t, largest k_t, [(r, pows[r]) for each row class hit]),
    # the class that moves most often first: it hits the fewest rows
    walk = []
    for _, c, top, col in sorted(zip(map(int.bit_count, cols), sizes, _half(sizes)[0], cols)):
        rows = [(r, pows[r]) for r in row_classes if (col >> r) & 1]
        for r, _ in rows:
            sums[r] += c
            least[r] += c - 2 * top
        if top:  # a held column (top = c - 1) leaves c - 1 to walk
            walk.append((c - (top == c - 1), top, rows))
    if 0 in cols or (0 in sums and not minors):
        return [0] * len(row_class) if minors else 0
    # every sum row class r takes, from least[r] up to its degree in steps
    # of 2; a negative s reads from the end of the list
    for p, s, low, m in zip(pows, sums, least, mult):
        p += [0] * (s + 1 - min(low, 0))
        for x in range(low, s + 1, 2):
            p[x] = x**m
    powers = [p[s] for p, s in zip(pows, sums)]  # s_r^m_r
    classes = len(walk)
    k = [0] * classes
    rising = [True] * classes
    focus = list(range(classes + 1))
    weight = 1  # (-1)^(sum k) * prod_t C(c_t, k_t)
    total = 0
    totals = [0] * len(mult)  # per row class, for n + 1 rows
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
        c, top, rows = walk[t]
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
        if kt == 0 or kt == top:
            rising[t] = not rising[t]
            focus[t] = focus[t + 1]
            focus[t + 1] = t + 1
        for r, p in rows:
            s = sums[r] + d
            sums[r] = s
            powers[r] = p[s]
    if minors:
        return [totals[r] >> (n - 1) for r in row_class]
    return total >> (n - 1)


def permanent_ryser(matrix) -> int:
    """Exact permanent via Glynn's formula over classes of identical lines
    (:func:`_glynn_classes`).

    ``matrix`` is a :class:`ClassTable`, or a 0/1 matrix with ``rows``
    and ``n`` (a ``graph.BitMatrix``), whose bits are grouped into one.
    Either must be square: a matrix with more rows than columns is
    :func:`permanent_minors`'s, and ``ValueError`` is raised.  The walk
    runs over the column classes of the table or of its transpose
    (per(A) = per(A^T), read from the table's blocks by
    :func:`_transpose`), the side with fewer terms
    (:func:`_half`), the columns on a tie: at most 2^(n-1) terms,
    reached only when all columns and all rows differ.
    """
    table = matrix
    if not isinstance(table, ClassTable):
        table = class_table(matrix.rows, [1] * matrix.n)
    if sum(table.mult) != table.n:
        raise ValueError(f"permanent of {sum(table.mult)} rows by {table.n} columns")
    if table.n and _half(table.mult)[1] < _half(table.sizes)[1]:
        table = _transpose(table)
    return _glynn_classes(table)


def permanent_minors(table: ClassTable) -> list[int]:
    """Permanents of an (n+1) x n 0/1 matrix with one row deleted, for
    every row, from one class walk.

    ``table`` is the :class:`ClassTable` of the matrix, with n + 1 rows;
    any other shape raises ``ValueError``.  Entry i of the result is the
    permanent of the n-square matrix without input row i.  Glynn's class
    walk (:func:`_glynn_classes`) runs over the column classes, so it
    costs prod(c_col + 1) / 2 terms for all rows together when a class
    has odd size.
    """
    if sum(table.mult) != table.n + 1:
        raise ValueError(f"minors of {sum(table.mult)} rows by {table.n} columns")
    return _glynn_classes(table)


def permanent_dp(rows: tuple[int, ...]) -> int:
    """Permanent of an n x n 0/1 matrix by a DP over used-column masks.

    ``rows`` holds the n row bit-vectors (bit j of ``rows[i]`` is entry
    (i, j)).  The rows are matched in ascending popcount, which the
    permanent does not depend on and which keeps the early layers small:
    layer i maps each set of i used columns to the number of ways the
    first i rows of that order can be matched into it, and the next row
    extends every set by one of its free columns.  At most C(n, n/2)
    masks per layer and n * 2^n steps in all, every term positive.
    """
    n = len(rows)
    if rows and max(rows) >> n:
        raise ValueError("rows must be n bit-vectors of width n")
    layer = {0: 1}
    for row in sorted(rows, key=int.bit_count):
        nxt: dict[int, int] = {}
        for used, ways in layer.items():
            free = row & ~used
            while free:
                low = free & -free
                nxt[used | low] = nxt.get(used | low, 0) + ways
                free ^= low
        layer = nxt
    return layer.get((1 << n) - 1, 0)
