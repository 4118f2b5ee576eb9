"""The named counting functions and their reductions.

* C(n): coprime permutations of [n].  Even n reduces to an (n/2)-square
  permanent through C(2m) = C0(m)^2; odd n = 2m+1 is assembled from the
  m+1 permanents C_(a)(m) through the coprime double sum, which is
  exponentially cheaper than one (2m+1)-square permanent.
* C0, C1, C_(a): the half-size coprime matching counts behind those
  reductions.  Every C_(a)(m) comes from one walk: the C_(a)(m) matrix
  is the (m+1) x m odd-against-[m] matrix ("ca", m) with the row of a
  deleted, and ``permanent_minors`` returns all m+1 of those permanents
  from one class walk.
* A(n): anti-coprime permutations (gcd > 1 away from position 1), via the
  reduced matrix with forced fixed points removed.  Every prime in
  (sqrt(n), n/2] is eliminated before the walk: A(n) is a weighted sum
  of class walks over a few dozen small residual matrices, whose weights
  count the matchings among each prime's multiples.  At n <= 5 and
  n = 9 there is no such prime, and the one residual is the reduced
  matrix itself.
* C_k(n): permutations avoiding common factors with k!.
* anti_lower(n): the gluing lower bound for A(n) built from
  smallest-prime-factor classes.
* The three published tables (t1: C0(n) with r_2n, t2: odd C(n) with
  r_n, t3: composite A(n) with u_n), row by row; ``checks.tables``
  compares them against reference.py.

Every count hands the walk a class table built from the labels and the
predicate of its matrix, ``graph.incidence`` (:func:`_table`), never a
bit matrix: each predicate (gcd = 1, gcd > 1, gcd with k! = 1) reads
only the primes of its labels, so the labels are grouped by rad, the
predicate runs once per pair of rad classes and classes with equal lines
merge.  ``--method permanent`` walks the bits of ``graph.matrix``, the
same definition, grouped into the same table.

Two counts reuse class work already in memory.  ``count_c0(n)`` reads
C0(n) off the C_(a) minors when the memo holds them, as the last minor
of ("ca", n) or the expansion along column n of ("ca", n-1), and walks
its own table otherwise.  ``_anti_split`` builds one table, on the base
labels, and derives every residual table from it by counts alone.  So a
check that sets two routes against each other takes routes that do not
read each other's memo: the square record of ``checks.lemmas`` walks
the C0(n) matrix itself (``compute(..., method="permanent")``) against
the last minor.

All values are exact integers and are memoized in-process by
(kind, n, aux), the C_(a)(m) as one tuple under ("ca", m); a memoized
value is still refused past a smaller ceiling.  The persistent cache
lives in the CLI layer.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from math import gcd

from .graph import (
    DEFAULT_CEILING,
    CapacityError,
    check_aux,
    check_ceiling,
    count_dimension,
    incidence,
    matrix,
    smallest_factor,
)
from .permanent import ClassTable, class_table, permanent_dp, permanent_minors, permanent_ryser

__all__ = [
    "CountResult",
    "count_c0",
    "count_c_a",
    "count_c1",
    "count_c",
    "count_a",
    "count_ck",
    "anti_lower",
    "growth_ratio",
    "count_ratio",
    "TableRow",
    "table_row",
    "table_rows",
    "brute_constrained_count",
    "format_ratio",
    "compute",
]

_BRUTE_XCHECK_MAX = 12  # the one size limit of every brute route

_memo: dict[tuple, int | tuple[int, ...]] = {}


class CountResult(namedtuple("CountResult", "kind n aux value method")):
    """One computed count: which function (c | c0 | c1 | ca | a | ck |
    anti-lower), at which argument, via which path."""

    __slots__ = ()


def _memoized(key: tuple, ceiling: int, count, oracle=None):
    """``count()`` memoized under ``key = (kind, n, ...)``, refused past the
    ceiling.

    The largest permanent dimension behind the value,
    ``count_dimension(kind, n)``, is checked on hits as well as misses, so
    a value memoized under one ceiling is never returned past a smaller
    one.  For n <= 12, ``oracle()`` (``brute_constrained_count``)
    cross-checks the value once per key.  n < 1 raises ``ValueError``.
    """
    if key[1] < 1:
        raise ValueError("n must be >= 1")
    check_ceiling(count_dimension(key[0], key[1]), ceiling)
    if key not in _memo:
        value = count()
        if oracle is not None and key[1] <= _BRUTE_XCHECK_MAX:
            check = oracle()
            if check != value:
                raise AssertionError(f"{key} value {value} != oracle {check}")
        _memo[key] = value
    return _memo[key]


@functools.cache
def _rad(m: int) -> int:
    """The product of the distinct primes of m >= 1."""
    r = 1
    while m > 1:
        p = smallest_factor(m)
        r *= p
        while m % p == 0:
            m //= p
    return r


def _table(xs, ys, pred):
    """The class table of the matrix with bit (i, j) iff pred(xs[i], ys[j]).

    Every predicate here reads only the primes of its labels, so labels
    are grouped by rad and ``pred`` runs once per pair of rad classes;
    ``class_table`` merges the classes whose lines are equal.
    """
    widths = Counter(map(_rad, ys))
    lines = {x: sum(pred(x, y) << t for t, y in enumerate(widths)) for x in set(map(_rad, xs))}
    return class_table([lines[_rad(x)] for x in xs], widths.values())


def count_c0(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of coprime matchings from the first n odd numbers into [n].

    Read from the C_(a) minors when the memo holds them: C0(n) is
    C_(2n+1)(n), the last of ("ca", n), and the sum of C_(a)(n-1) over
    the odd a < 2n coprime to n, its expansion along column n.  Otherwise
    one walk of its own table.
    """

    def count() -> int:
        if ("ca", n) in _memo:
            return _memo[("ca", n)][-1]
        odds, cols, coprime = incidence("c0", n)
        if ("ca", n - 1) in _memo:
            return sum(c for a, c in zip(odds, _memo[("ca", n - 1)]) if coprime(a, n))
        return permanent_ryser(_table(odds, cols, coprime))

    return _memoized(("c0", n), ceiling, count)


def _c_a_all(n: int, ceiling: int) -> tuple[int, ...]:
    """(C_(1)(n), C_(3)(n), ..., C_(2n+1)(n)) from one class walk: the
    minors of the first n+1 odd numbers against [n], ("ca", n)."""
    count = lambda: tuple(permanent_minors(_table(*incidence("ca", n))))
    return _memoized(("ca", n), ceiling, count)


def count_c_a(n: int, a: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Coprime matchings between [n] and the first n+1 odd numbers minus {a}."""
    if a % 2 == 0 or not 1 <= a <= 2 * n + 1:
        raise ValueError(f"a={a} must be odd and within 1..{2 * n + 1}")
    return _c_a_all(n, ceiling)[a // 2]


def count_c1(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Sum of count_c_a(n, a) over all odd a <= 2n+1."""
    return sum(_c_a_all(n, ceiling))


def count_c(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of coprime permutations of [n].

    Even n: count_c0(n/2) squared.  Odd n = 2m+1: the coprime double sum
    of C_(a)(m) * C_(b)(m) over excluded odd values a, b, every C_(a)(m)
    read from one walk.  The first result for each n <= 12 is
    cross-checked against the independent subset-DP oracle.
    """

    def reduce() -> int:
        m = n // 2
        if n == 1:
            return 1  # the single permutation of {1}
        if n % 2 == 0:
            return count_c0(m, ceiling=ceiling) ** 2
        ca = dict(zip(range(1, n + 1, 2), _c_a_all(m, ceiling)))
        return sum(ca[a] * ca[b] for a in ca for b in ca if gcd(a, b) == 1)

    oracle = lambda: brute_constrained_count(n, "c")
    return _memoized(("c", n), ceiling, reduce, oracle)


def count_a(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of permutations of [n] with gcd(j, sigma(j)) > 1 for j >= 2.

    The permanent of the reduced matrix (forced fixed points removed;
    0 x 0 at n = 1).  Its dimension, read from the labels, meets the
    ceiling before any work.  :func:`_anti_split` eliminates every prime
    in (sqrt(n), n/2] (:func:`_anti_primes`) and sums the walks of the
    residuals they leave; at n <= 5 and n = 9 there is none, and that
    is one class walk on the matrix ("a", n).
    """
    count = lambda: _anti_split(n, _anti_primes(n))
    oracle = lambda: brute_constrained_count(n, "a")
    return _memoized(("a", n), ceiling, count, oracle)


# Large-prime elimination for A(n).  A prime p with sqrt(n) < p <= n/2 has
# the multiples p*k, k <= n // p < p, on both sides of the reduced matrix.
# Split the matrix A = B + E with disjoint supports: E holds the entries
# (p*k, p*k') with gcd(k, k') = 1, which share only p, and B is the
# anti-coprime predicate with every eliminated p divided out, so p*k acts
# as rad(k).  Then per(A) = sum over the partial matchings S of E of
# per(B without the rows and columns of S).  Row and column p are zero in
# B, so S covers both; the matchings of different primes are independent,
# and a residual depends only on the rad(k) left uncovered on each side.


@functools.cache
def _anti_patterns(m: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The local pattern table of an eliminated prime with m multiples.

    The partial matchings of k in 1..m against k' in 1..m along
    gcd(k, k') = 1 that cover k = 1 on both sides, counted by the sorted
    rad(k) of the rows and of the columns each leaves uncovered.  At
    m = 2 (p in (n/3, n/2]) these are p fixed, leaving 2p as 2 on both
    sides, and the 2-cycle (p 2p), leaving nothing.
    """
    table: dict[tuple, int] = {}

    def match(k: int, used: int, left: tuple[int, ...]) -> None:
        if k > m:
            if used & 1:
                cols = (_rad(c) for c in range(2, m + 1) if not used >> (c - 1) & 1)
                key = (tuple(sorted(left)), tuple(sorted(cols)))
                table[key] = table.get(key, 0) + 1
            return
        if k > 1:
            match(k + 1, used, left + (_rad(k),))
        for c in range(1, m + 1):
            if not used >> (c - 1) & 1 and gcd(k, c) == 1:
                match(k + 1, used | 1 << (c - 1), left)

    match(1, 0, ())
    return table


def _anti_residuals(n: int, primes) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The uncovered (rows, columns) left by eliminating ``primes``, as
    sorted rad values, with the number of matchings of E that leave each."""
    residuals = {((), ()): 1}
    for p in primes:
        merged: dict[tuple, int] = {}
        for (rows, cols), w in residuals.items():
            for (more_rows, more_cols), v in _anti_patterns(n // p).items():
                key = (tuple(sorted(rows + more_rows)), tuple(sorted(cols + more_cols)))
                merged[key] = merged.get(key, 0) + w * v
        residuals = merged
    return residuals


def _anti_primes(n: int) -> list[int]:
    """The primes to eliminate: every prime in (sqrt(n), n/2], largest
    first (none at n <= 5 and n = 9)."""
    return [p for p in range(n // 2, 1, -1) if p * p > n and smallest_factor(p) == p]


def _anti_split(n: int, primes) -> int:
    """A(n) as the weighted sum of the permanents of the residuals left by
    eliminating ``primes``, each a table on the gcd > 1 predicate of
    ("a", n); with none, the one residual is its matrix.  The
    predicate is symmetric, so the residual (rows Y, columns X) is the
    transpose of (X, Y): each such pair is walked once, with the two
    weights added.

    One table is built, on the base labels (those no eliminated prime
    divides).  A residual adds the labels rad(k), k <= n // p < sqrt(n),
    and each is itself a base label: adding it raises the multiplicity of
    its row class or the size of its column class and leaves every line
    as it is.  So each residual table is the base table with new counts,
    with no predicate call and no regrouping.
    """
    labels, _, anti = incidence("a", n)
    base = [x for x in labels if all(x % p for p in primes)]
    pairs: dict[tuple, int] = {}
    for (rows, cols), weight in _anti_residuals(n, primes).items():
        key = min((rows, cols), (cols, rows))
        pairs[key] = pairs.get(key, 0) + weight
    table = _table(base, base, anti)
    # the row class and the column class of each label a residual adds;
    # a column class is its column's bits over the row classes
    extra = {x for key in pairs for side in key for x in side}
    firsts = [base[table.row_class.index(r)] for r in range(len(table.mult))]
    row_of = {x: table.row_class[base.index(x)] for x in extra}
    col_of = {
        x: table.cols.index(sum(anti(y, x) << r for r, y in enumerate(firsts))) for x in extra
    }
    total = 0
    for (rows, cols), weight in pairs.items():
        mult, sizes = list(table.mult), list(table.sizes)
        for x in rows:
            mult[row_of[x]] += 1
        for x in cols:
            sizes[col_of[x]] += 1
        row_class = table.row_class + tuple(row_of[x] for x in rows)
        residual = ClassTable(table.n + len(cols), tuple(mult), tuple(sizes), table.cols, row_class)
        total += weight * permanent_ryser(residual)
    return total


def count_ck(n: int, k: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of permutations of [n] with gcd(j, sigma(j), k!) = 1; a
    prime above n divides no label, so k! stops at min(k, n)!."""
    if k < 2:
        raise ValueError("k must be >= 2")
    count = lambda: permanent_ryser(_table(*incidence("ck", n, k)))
    oracle = lambda: brute_constrained_count(n, "ck", k=k)
    return _memoized(("ck", n, k), ceiling, count, oracle)


def anti_lower(n: int) -> int:
    """Gluing lower bound for A(n).

    Product over primes p <= n of (#L_n(p))!, where L_n(p) collects the
    m <= n whose smallest prime factor is p.  Permuting each class
    internally keeps every pair sharing the factor p, so the product
    counts distinct anti-coprime permutations.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    sizes = Counter(map(smallest_factor, range(2, n + 1)))
    return math.prod(map(math.factorial, sizes.values()))


def growth_ratio(n: int, value: int) -> float:
    """(n!/value)^(1/n) as exp((log n! - log value) / n).

    ``math.log`` takes the exact integers at any size, so no quotient is
    formed and nothing overflows (the quotient of n! by a small count
    passes the float range near n = 171).  Each log is within a few units
    in the last place, so the ratio's relative error is of order
    log(n!) * 2^-52 / n.
    """
    return math.exp((math.log(math.factorial(n)) - math.log(value)) / n)


def count_ratio(kind: str, n: int, value: int) -> float | None:
    """The growth ratio printed beside a count: r_2n = growth_ratio(2n,
    C0(n)^2) for c0 (as C(2n) = C0(n)^2), growth_ratio(n, value) for c
    and a (r_n and u_n), and none for the other kinds."""
    if kind == "c0":
        return growth_ratio(2 * n, value * value)
    if kind in ("c", "a"):
        return growth_ratio(n, value)
    return None


def format_ratio(x: float) -> str:
    """Render a ratio at 4 decimals, ties half-even (table convention)."""
    from decimal import ROUND_HALF_EVEN, Decimal  # loaded only to print a ratio

    return str(Decimal(repr(x)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


class TableRow(namedtuple("TableRow", "n value ratio")):
    """One row of a published table: n, its count and the ratio column
    (r_2n for t1, r_n for t2, u_n for t3)."""

    __slots__ = ()

    def printed(self) -> dict:
        """The row as the table prints it: exact value, 4-decimal ratio."""
        return {"n": self.n, "value": str(self.value), "ratio": format_ratio(self.ratio)}


# table -> the kind it lists and its count function
_TABLE_COUNTS = {"t1": ("c0", count_c0), "t2": ("c", count_c), "t3": ("a", count_a)}


def table_row(which: str, n: int, *, ceiling: int) -> TableRow:
    """Row n of table t1, t2 or t3."""
    kind, count = _TABLE_COUNTS[which]
    value = count(n, ceiling=ceiling)
    return TableRow(n, value, count_ratio(kind, n, value))


def table_rows(
    which: str, max_n: int, *, ceiling: int = DEFAULT_CEILING
) -> list[TableRow]:
    """Rows n <= max_n of table t1 (every n), t2 (odd n) or t3 (composite n).

    A table with no row n <= max_n raises ``ValueError``.
    """
    if which == "t1":
        ns = range(1, max_n + 1)
    elif which == "t2":
        ns = range(1, max_n + 1, 2)
    elif which == "t3":
        ns = [n for n in range(4, max_n + 1) if smallest_factor(n) != n]
    else:
        raise ValueError(f"unknown table {which!r}")
    if not ns:
        first = 4 if which == "t3" else 1
        raise ValueError(
            f"table {which} has no row n <= {max_n}; its first row is n={first}"
        )
    return [table_row(which, n, ceiling=ceiling) for n in ns]


def _allowed_rows(n: int, kind: str, k: int | None) -> tuple[int, ...]:
    if kind == "c":
        pred = lambda j, v: gcd(j, v) == 1
    elif kind == "a":
        pred = lambda j, v: j == 1 or gcd(j, v) > 1
    elif kind == "ck":
        if k is None or k < 2:
            raise ValueError("kind 'ck' needs k >= 2")
        # no prime <= k divides gcd(j, v) <= n iff no d in 2..min(k, n) does
        pred = lambda j, v: all(gcd(j, v) % d for d in range(2, min(k, n) + 1))
    else:
        raise ValueError(f"the oracle has no kind {kind!r}")
    # bit v-1 of row j-1 set iff sigma(j) = v is allowed
    values = range(1, n + 1)
    return tuple(sum(1 << (v - 1) for v in values if pred(j, v)) for j in values)


def _check_brute(n: int) -> None:
    if n > _BRUTE_XCHECK_MAX:
        raise CapacityError(f"brute enumeration limited to n <= {_BRUTE_XCHECK_MAX}")


def brute_constrained_count(n: int, kind: str, *, k: int | None = None) -> int:
    """The count ``kind`` (c, a or ck with k) at n, over all of [n] and
    from gcd predicates alone.

    Independent oracle: the allowed values of each position come from
    its own gcd tests, not from ``graph.incidence``, and are counted by
    ``permanent_dp``, which shares nothing with the class walk.
    Limited to n <= 12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_brute(n)
    return permanent_dp(_allowed_rows(n, kind, k))


def compute(
    kind: str,
    n: int,
    aux: int | None = None,
    *,
    method: str = "auto",
    ceiling: int = DEFAULT_CEILING,
) -> CountResult:
    """Dispatch a named count; the CLI's single entry point.

    ``method`` selects the computation path:

    * "auto" (every kind): the memoized count_* reductions;
    * "permanent" (c, c0, a, ck): ``permanent_ryser`` of ``graph.matrix``,
      refused past ``ceiling`` before the matrix is built;
    * "brute" (every kind): ``permanent_dp``, on the gcd predicates of
      ``brute_constrained_count`` for c, a and ck and on the defining
      matrices for c0 and c1; n past ``ceiling`` or past 12 raises
      ``CapacityError``.

    n < 1, a pair outside the table, an ``aux`` on a kind other than ck,
    or a ck without one raises ``ValueError``.
    """

    if kind not in ("c", "c0", "c1", "a", "ck"):
        raise ValueError(f"unknown kind {kind!r}")
    check_aux(kind, aux)
    if method not in ("auto", "permanent", "brute") or (kind, method) == ("c1", "permanent"):
        raise ValueError(f"kind {kind!r} has no method {method!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "auto":
        count = {"c": count_c, "c0": count_c0, "c1": count_c1, "a": count_a, "ck": count_ck}[kind]
        value = count(n, aux, ceiling=ceiling) if kind == "ck" else count(n, ceiling=ceiling)
    elif method == "permanent":
        # the direct route builds the full C(n) matrix, not its reduction
        check_ceiling(n if kind == "c" else count_dimension(kind, n), ceiling)
        value = permanent_ryser(matrix(kind, n, aux))
    else:
        # every brute route runs permanent_dp over n rows
        if n > ceiling:
            raise CapacityError(f"brute dimension {n} exceeds ceiling {ceiling}")
        _check_brute(n)
        if kind == "c0":
            value = permanent_dp(matrix("c0", n).rows)
        elif kind == "c1":
            # C_(a)(n): the ("ca", n) matrix without the row of a
            rows = matrix("ca", n).rows
            value = sum(permanent_dp(rows[:i] + rows[i + 1 :]) for i in range(n + 1))
        else:
            value = brute_constrained_count(n, kind, k=aux)
    if value < 0:
        raise AssertionError("counts are nonnegative")
    if kind == "c" and value < 1:
        raise AssertionError("C(n) >= 1: the cyclic permutation is coprime")
    return CountResult(kind=kind, n=n, aux=aux, value=value, method=method)
