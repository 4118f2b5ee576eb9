"""The named counting functions and their reductions.

* C(n): coprime permutations of [n].  Even n reduces to an (n/2)-square
  permanent through C(2m) = C0(m)^2; odd n = 2m+1 is assembled from the
  m+1 permanents C_(a)(m) through the coprime double sum, which is
  exponentially cheaper than one (2m+1)-square permanent.
* C0, C1, C_(a): the half-size coprime matching counts behind those
  reductions.  Every C_(a)(m) comes from one walk: the C_(a)(m) matrix
  is the (m+1) x m odd-against-[m] matrix ("ca", m) with the row of a
  deleted, and ``permanent_minors`` returns all m+1 of those permanents
  from one class walk, memoized under ("ca", m).  C1(m) is their sum,
  and one permanent: ("c1", m) is the ("ca", m) matrix with column 1
  twice, which expands along that column to the sum; C1(m) walks that
  matrix, which costs less than the minors walk.
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
  r_n, t3: composite A(n) with u_n): :func:`table_rows` is the one route
  to their rows, which it returns as ``table`` prints them, and
  ``checks.tables`` sets those printed rows against reference.py.

Every count hands the walk a class table built from the labels and the
rule of its matrix, ``graph.incidence`` (:func:`_table`), never a bit
matrix: the columns are grouped by prime set, each prime has one mask of
the groups it divides, and a row's line is the union of its primes'
masks, complemented unless the rule asks for a shared prime.
``--method permanent`` walks the same table of the count's whole matrix
once, with no reduction and no memo.

Two counts reuse class work already in memory.  ``count_c0(n)`` reads
C0(n) off the C_(a) minors when the memo holds them, as the last minor
of ("ca", n) or the expansion along column n of ("ca", n-1), and walks
its own table otherwise.  ``_anti_split`` builds the lines of the base
labels once, and each residual's table from them.  So a check that sets
two routes against each other takes routes that do not read each other's
memo: the square record of ``checks.lemmas`` walks the C0(n) matrix
itself (``compute(..., method="permanent")``) against the last minor.

All values are exact integers and are memoized in-process by
(kind, n, aux), the C_(a)(m) as one tuple under ("ca", m).  Only
:func:`compute` and :func:`table_rows` read a ceiling (``graph.admit``);
the count_* functions take none, like the permanent engines, and
``graph.incidence`` refuses a malformed request before any table is
built.  The persistent cache lives in the CLI layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple
from math import gcd, inf
from operator import or_

from .graph import BRUTE_MAX, DEFAULT_CEILING, admit, incidence, prime_factors, smallest_factor
from .permanent import class_table, permanent_dp, permanent_minors, permanent_ryser

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
    "table_rows",
    "brute_constrained_count",
    "format_ratio",
    "compute",
]

_memo: dict[tuple, int | tuple[int, ...]] = {}


class CountResult(namedtuple("CountResult", "kind n aux value method")):
    """One computed count: which kind (c | c0 | c1 | a | ck), at which
    (n, aux), via which method (auto | permanent | brute)."""

    __slots__ = ()


def _memoized(key: tuple, count, oracle=None):
    """``count()`` memoized under ``key = (kind, n[, aux])``.

    For n <= ``BRUTE_MAX``, ``oracle()`` (``brute_constrained_count``)
    cross-checks the value once per key.
    """
    if key not in _memo:
        value = count()
        if oracle is not None and key[1] <= BRUTE_MAX:
            check = oracle()
            if check != value:
                raise AssertionError(f"{key} value {value} != oracle {check}")
        _memo[key] = value
    return _memo[key]


def _rad_lines(xs, ys, share, bound):
    """The line of each prime set of ``xs`` over the prime sets of ``ys``,
    and how many of ``ys`` have each.  One mask per prime holds the column
    groups it divides; a line is the OR of the masks of its primes <= bound,
    complemented unless ``share``.  No pair of labels is tested."""
    widths = Counter(map(prime_factors, ys))
    masks = {}
    for t, primes in enumerate(widths):
        for p in primes:
            masks[p] = masks.get(p, 0) | 1 << t
    full = 0 if share else (1 << len(widths)) - 1
    lines = {
        primes: full ^ functools.reduce(or_, (masks.get(p, 0) for p in primes if p <= bound), 0)
        for primes in set(map(prime_factors, xs))
    }
    return lines, widths


def _table(xs, ys, share, bound):
    """The class table of the matrix ``graph.incidence`` declares."""
    lines, widths = _rad_lines(xs, ys, share, bound)
    return class_table([lines[prime_factors(x)] for x in xs], widths.values())


def count_c0(n: int) -> int:
    """Number of coprime matchings from the first n odd numbers into [n].

    Read from the C_(a) minors when the memo holds them: C0(n) is
    C_(2n+1)(n), the last of ("ca", n), and the sum of C_(a)(n-1) over
    the odd a < 2n coprime to n, its expansion along column n.  Otherwise
    one walk of its own table.
    """

    def count() -> int:
        if ("ca", n) in _memo:
            return _memo[("ca", n)][-1]
        if ("ca", n - 1) in _memo:  # C_(a)(n - 1) for a = 2i + 1
            return sum(c for i, c in enumerate(_memo[("ca", n - 1)]) if gcd(2 * i + 1, n) == 1)
        return permanent_ryser(_table(*incidence("c0", n)))

    return _memoized(("c0", n), count)


def _c_a_all(n: int) -> tuple[int, ...]:
    """(C_(1)(n), C_(3)(n), ..., C_(2n+1)(n)) from one class walk: the
    row minors of the ("ca", n) matrix, the first n+1 odd numbers against
    [n], memoized under that key."""
    count = lambda: tuple(permanent_minors(_table(*incidence("ca", n))))
    return _memoized(("ca", n), count)


def count_c_a(n: int, a: int) -> int:
    """Coprime matchings between [n] and the first n+1 odd numbers minus {a}."""
    if a % 2 == 0 or not 1 <= a <= 2 * n + 1:
        raise ValueError(f"a={a} must be odd and within 1..{2 * n + 1}")
    return _c_a_all(n)[a // 2]


def count_c1(n: int) -> int:
    """Sum of count_c_a(n, a) over all odd a <= 2n+1: one walk of the
    (n+1)-square ("c1", n) matrix, which expands along its column 1 to
    that sum and costs less than the minors walk of ("ca", n)."""
    return _memoized(("c1", n), lambda: permanent_ryser(_table(*incidence("c1", n))))


def count_c(n: int) -> int:
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
            return count_c0(m) ** 2
        ca = dict(zip(range(1, n + 1, 2), _c_a_all(m)))
        return sum(ca[a] * ca[b] for a in ca for b in ca if gcd(a, b) == 1)

    oracle = lambda: brute_constrained_count(n, "c")
    return _memoized(("c", n), reduce, oracle)


def count_a(n: int) -> int:
    """Number of permutations of [n] with gcd(j, sigma(j)) > 1 for j >= 2.

    The permanent of the reduced matrix (forced fixed points removed;
    0 x 0 at n = 1), with no cap: :func:`compute` caps its dimension,
    the number of labels, before any work.  :func:`_anti_split`
    eliminates every prime in (sqrt(n), n/2] (:func:`_anti_primes`) and
    sums the walks of the residuals they leave; at n <= 5 and n = 9
    there is none, and that is one class walk on the matrix ("a", n).
    """
    count = lambda: _anti_split(n, _anti_primes(n))
    oracle = lambda: brute_constrained_count(n, "a")
    return _memoized(("a", n), count, oracle)


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
    rad = lambda k: math.prod(prime_factors(k))

    def match(k: int, used: int, left: tuple[int, ...]) -> None:
        if k > m:
            if used & 1:
                cols = (rad(c) for c in range(2, m + 1) if not used >> (c - 1) & 1)
                key = (tuple(sorted(left)), tuple(sorted(cols)))
                table[key] = table.get(key, 0) + 1
            return
        if k > 1:
            match(k + 1, used, left + (rad(k),))
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
    eliminating ``primes``, each a table on the rule of ("a", n), a
    shared prime; with none, the one residual is its matrix.  The rule
    is symmetric, so the residual (rows Y, columns X) is the transpose of
    (X, Y): each such pair is walked once, with the two weights added.

    The lines of the base labels (those no eliminated prime divides) are
    built once.  A residual adds labels rad(k), k <= n // p < sqrt(n),
    each with the primes of a base label, so its table takes the base
    lines plus a line per added row and the base widths plus one per
    added column.
    """
    labels, _, share, bound = incidence("a", n)
    base = [x for x in labels if all(x % p for p in primes)]
    pairs: dict[tuple, int] = {}
    for (rows, cols), weight in _anti_residuals(n, primes).items():
        key = min((rows, cols), (cols, rows))
        pairs[key] = pairs.get(key, 0) + weight
    lines, widths = _rad_lines(base, base, share, bound)
    base_lines = [lines[prime_factors(x)] for x in base]
    total = 0
    for (rows, cols), weight in pairs.items():
        sizes = dict(widths)  # not a Counter: primes outside the base are a KeyError
        for y in cols:
            sizes[prime_factors(y)] += 1
        table = class_table(base_lines + [lines[prime_factors(x)] for x in rows], sizes.values())
        total += weight * permanent_ryser(table)
    return total


def count_ck(n: int, k: int) -> int:
    """Number of permutations of [n] with gcd(j, sigma(j), k!) = 1; a
    prime above n divides no label, so k! stops at min(k, n)!."""
    count = lambda: permanent_ryser(_table(*incidence("ck", n, k)))
    oracle = lambda: brute_constrained_count(n, "ck", k=k)
    return _memoized(("ck", n, k), count, oracle)


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


# table -> the kind it lists, its count function and its row rule
_TABLES = {
    "t1": ("c0", count_c0, lambda n: True),
    "t2": ("c", count_c, lambda n: n % 2 == 1),
    "t3": ("a", count_a, lambda n: n >= 4 and smallest_factor(n) != n),
}


def table_rows(which: str, max_n: int, *, ceiling: int = DEFAULT_CEILING) -> list[dict]:
    """Rows n <= max_n of table t1 (every n), t2 (odd n) or t3 (composite
    n >= 4), as they print: n, the exact count as a string and its ratio
    (r_2n, r_n or u_n) at 4 decimals.

    A table with no row n <= max_n raises ``ValueError``.  Every row is
    admitted before any is computed, so a table past the ceiling is
    refused, at its first row past it, with no work done.
    """
    if which not in _TABLES:
        raise ValueError(f"unknown table {which!r}")
    kind, count, listed = _TABLES[which]
    ns = []
    for n in filter(listed, range(1, max_n + 1)):
        admit(kind, n, ceiling=ceiling)
        ns.append(n)
    if not ns:
        first = next(filter(listed, itertools.count(1)))
        raise ValueError(f"table {which} has no row n <= {max_n}; its first row is n={first}")
    rows = []
    for n in ns:
        value = count(n)
        ratio = format_ratio(count_ratio(kind, n, value))
        rows.append({"n": n, "value": str(value), "ratio": ratio})
    return rows


def _allowed_rows(n: int, kind: str, k: int | None) -> tuple[int, ...]:
    """Bit v-1 of row i set iff the i-th row label may take the value v
    in [n]: the labels are [n], or the first n odd numbers for c0 and the
    first n+1 for c1."""
    values = labels = range(1, n + 1)
    pred = lambda j, v: gcd(j, v) == 1
    if kind in ("c0", "c1"):
        labels = range(1, 2 * (n + (kind == "c1")), 2)
    elif kind == "a":
        pred = lambda j, v: j == 1 or gcd(j, v) > 1
    elif kind == "ck":
        # no prime <= k divides gcd(j, v) <= n iff no d in 2..min(k, n) does
        pred = lambda j, v: all(gcd(j, v) % d for d in range(2, min(k, n) + 1))
    return tuple(sum(1 << (v - 1) for v in values if pred(j, v)) for j in labels)


def brute_constrained_count(n: int, kind: str, *, k: int | None = None) -> int:
    """The count ``kind`` at n (``k`` the aux of ck), from gcd predicates
    alone.

    Independent oracle: the allowed values of each row label come from
    its own gcd tests, not from ``graph.incidence``, and are counted by
    ``permanent_dp``, which shares nothing with the class walk; C1(n)
    sums the n+1 row-deleted DPs, the C_(a)(n).  Admitted as a brute
    request with no ceiling, so limited to n <= 12.
    """
    admit(kind, n, k, method="brute", ceiling=inf)
    rows = _allowed_rows(n, kind, k)
    if kind == "c1":
        return sum(permanent_dp(rows[:i] + rows[i + 1 :]) for i in range(n + 1))
    return permanent_dp(rows)


def compute(
    kind: str,
    n: int,
    aux: int | None = None,
    *,
    method: str = "auto",
    ceiling: int = DEFAULT_CEILING,
) -> CountResult:
    """Dispatch a named count: the capped entry of the library and CLI.

    ``graph.admit`` refuses a malformed request, or one past ``ceiling``,
    before any work.  ``method`` selects the computation path:

    * "auto" (every kind): the memoized count_* reductions;
    * "permanent" (every kind): one walk of the label table of
      ``graph.incidence``, with no reduction and no memo;
    * "brute" (every kind, n <= 12): ``brute_constrained_count``.
    """
    admit(kind, n, aux, method=method, ceiling=ceiling)
    if method == "auto":
        count = {"c": count_c, "c0": count_c0, "c1": count_c1, "a": count_a, "ck": count_ck}[kind]
        value = count(n, aux) if kind == "ck" else count(n)
    elif method == "permanent":
        value = permanent_ryser(_table(*incidence(kind, n, aux)))
    else:
        value = brute_constrained_count(n, kind, k=aux)
    if value < 0:
        raise AssertionError("counts are nonnegative")
    if kind == "c" and value < 1:
        raise AssertionError("C(n) >= 1: the cyclic permutation is coprime")
    return CountResult(kind=kind, n=n, aux=aux, value=value, method=method)
