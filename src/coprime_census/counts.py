"""The named counting functions and their reductions.

* C(n): coprime permutations of [n].  Even n reduces to an (n/2)-square
  permanent through C(2m) = C0(m)^2; odd n = 2m+1 is assembled from the
  m+1 permanents C_(a)(m) through the coprime double sum, which is
  exponentially cheaper than one (2m+1)-square permanent.
* C0, C1, C_(a): the half-size coprime matching counts behind those
  reductions.  Every C_(a)(m) comes from one walk: the C_(a)(m) matrix
  is the (m+1) x m odd-against-[m] matrix of ``odd_plus_rows(m)`` with
  the row of a deleted and transposed, and ``permanent_minors`` returns
  all m+1 of those permanents from one class walk.
* A(n): anti-coprime permutations (gcd > 1 away from position 1), via the
  reduced matrix with forced fixed points removed.
* C_k(n): permutations avoiding common factors with k!.
* anti_lower(n): the gluing lower bound for A(n) built from
  smallest-prime-factor classes.
* The three published tables (t1: C0(n) with r_2n, t2: odd C(n) with
  r_n, t3: composite A(n) with u_n), row by row, and their comparison
  against reference.py.

All values are exact integers and are memoized in-process by
(kind, n, aux), the C_(a)(m) as one tuple under ("ca", m); a memoized
value is still refused past a smaller ceiling.  The persistent cache
lives in the CLI layer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import gcd

from .graph import (
    DEFAULT_CEILING,
    BitMatrix,
    CapacityError,
    build_anti,
    build_full_coprime,
    build_gcd_k,
    build_odd_half,
    build_odd_plus_excluding,
    check_aux,
    check_ceiling,
    count_dimension,
    odd_plus_rows,
    smallest_factor,
)
from .permanent import permanent_dp, permanent_minors, permanent_ryser

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
    "table_rows",
    "check_table",
    "brute_constrained_count",
    "format_ratio",
    "check_aux",
    "matrix_for",
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
    cross-checks the value once per key.
    """
    check_ceiling(count_dimension(key[0], key[1]), ceiling)
    if key not in _memo:
        value = count()
        if oracle is not None and key[1] <= _BRUTE_XCHECK_MAX:
            check = oracle()
            if check != value:
                raise AssertionError(f"{key} value {value} != oracle {check}")
        _memo[key] = value
    return _memo[key]


def count_c0(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of coprime matchings from the first n odd numbers into [n]."""
    count = lambda: permanent_ryser(build_odd_half(n))
    return _memoized(("c0", n), ceiling, count)


def _c_a_all(n: int, ceiling: int) -> tuple[int, ...]:
    """(C_(1)(n), C_(3)(n), ..., C_(2n+1)(n)) from one class walk."""
    count = lambda: tuple(permanent_minors(odd_plus_rows(n)))
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
    if n < 1:
        raise ValueError("n must be >= 1")

    def reduce() -> int:
        m = n // 2
        if n == 1:
            return 1  # the single permutation of {1}
        if n % 2 == 0:
            return count_c0(m, ceiling=ceiling) ** 2
        ca = dict(zip(range(1, n + 1, 2), _c_a_all(m, ceiling)))
        return sum(ca[a] * ca[b] for a in ca for b in ca if gcd(a, b) == 1)

    oracle = lambda: brute_constrained_count(n, "coprime")
    return _memoized(("c", n), ceiling, reduce, oracle)


def count_a(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of permutations of [n] with gcd(j, sigma(j)) > 1 for j >= 2.

    The Ryser permanent of the reduced matrix (forced fixed points
    removed; 0 x 0 at n = 1), whose dimension is read from its labels
    before it is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    count = lambda: permanent_ryser(build_anti(n))
    oracle = lambda: brute_constrained_count(n, "anti")
    return _memoized(("a", n), ceiling, count, oracle)


def count_ck(n: int, k: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of permutations of [n] with gcd(j, sigma(j), k!) = 1."""
    count = lambda: permanent_ryser(build_gcd_k(n, k))
    oracle = lambda: brute_constrained_count(n, "gcd_k", k=k)
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
    sizes: dict[int, int] = {}
    for m in range(2, n + 1):
        p = smallest_factor(m)
        sizes[p] = sizes.get(p, 0) + 1
    result = 1
    for c in sizes.values():
        result *= math.factorial(c)
    return result


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


def _table_row(which: str, n: int, *, ceiling: int) -> TableRow:
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
    return [_table_row(which, n, ceiling=ceiling) for n in ns]


def check_table(
    which: str, max_n: int, *, ceiling: int = DEFAULT_CEILING
) -> list[tuple[TableRow, bool]]:
    """Recompute the reference rows n <= max_n of a table; flag each match.

    A row matches when its value equals the reference value and its ratio
    prints as the reference string.  At the five errata rows the
    reference holds the corrected entry, so the check asserts the
    correction rather than the published typo.
    """
    from . import reference  # only this check reads the published rows

    published = {"t1": reference.TABLE_C0, "t2": reference.TABLE_C_ODD, "t3": reference.TABLE_A}
    checks = []
    for n, (want, want_ratio) in published[which].items():
        if n <= max_n:
            row = _table_row(which, n, ceiling=ceiling)
            passed = row.value == want and format_ratio(row.ratio) == want_ratio
            checks.append((row, passed))
    return checks


def _allowed_rows(n: int, constraint: str, k: int | None) -> tuple[int, ...]:
    if constraint == "coprime":
        pred = lambda j, v: gcd(j, v) == 1
    elif constraint == "anti":
        pred = lambda j, v: j == 1 or gcd(j, v) > 1
    elif constraint == "gcd_k":
        if k is None or k < 2:
            raise ValueError("gcd_k constraint needs k >= 2")
        # a prime above n divides no j <= n, so the list stops at min(k, n)
        top = min(k, n)
        kp = [p for p in range(2, top + 1) if all(p % q for q in range(2, p))]
        pred = lambda j, v: all(gcd(j, v) % p for p in kp)
    else:
        raise ValueError(f"unknown constraint {constraint!r}")
    # bit v-1 of row j-1 set iff sigma(j) = v is allowed
    values = range(1, n + 1)
    return tuple(sum(1 << (v - 1) for v in values if pred(j, v)) for j in values)


def _check_brute(n: int) -> None:
    if n > _BRUTE_XCHECK_MAX:
        raise CapacityError(f"brute enumeration limited to n <= {_BRUTE_XCHECK_MAX}")


def brute_constrained_count(
    n: int, constraint: str, *, k: int | None = None
) -> int:
    """Count permutations satisfying a positional constraint, from gcd
    predicates alone.

    Independent oracle: the allowed values of each position come from
    gcd tests, not from the matrix builders, and are counted by
    ``permanent_dp``, which shares nothing with the class walk.
    Limited to n <= 12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_brute(n)
    return permanent_dp(_allowed_rows(n, constraint, k))


def matrix_for(kind: str, n: int, aux: int | None = None) -> BitMatrix:
    """The 0/1 matrix whose permanent is the count ``kind`` at (n, aux).

    Defined for c, c0, a (the reduced matrix) and ck; c1 is a sum of
    permanents, not one, so it is refused with ``ValueError``.
    """
    check_aux(kind, aux)
    builders = {
        "c": lambda: build_full_coprime(n),
        "c0": lambda: build_odd_half(n),
        "a": lambda: build_anti(n),
        "ck": lambda: build_gcd_k(n, aux),
    }
    if kind not in builders:
        raise ValueError(f"kind {kind!r} is not the permanent of one matrix")
    return builders[kind]()


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
    * "permanent" (c, c0, a, ck): the Ryser permanent of ``matrix_for``,
      refused past ``ceiling`` before the matrix is built;
    * "brute" (every kind): ``permanent_dp``, on the gcd predicates of
      ``brute_constrained_count`` for c, a and ck and on the defining
      matrices for c0 and c1; n past ``ceiling`` or past 12 raises
      ``CapacityError``.

    n < 1, a pair outside the table, an ``aux`` on a kind other than ck,
    or a ck without one raises ``ValueError``.
    """

    def permanent() -> int:
        # the direct route builds the full C(n) matrix, not its reduction
        check_ceiling(n if kind == "c" else count_dimension(kind, n), ceiling)
        return permanent_ryser(matrix_for(kind, n, aux))

    table = {
        "c": {
            "auto": lambda: count_c(n, ceiling=ceiling),
            "permanent": permanent,
            "brute": lambda: brute_constrained_count(n, "coprime"),
        },
        "c0": {
            "auto": lambda: count_c0(n, ceiling=ceiling),
            "permanent": permanent,
            "brute": lambda: permanent_dp(matrix_for(kind, n, aux).rows),
        },
        "c1": {
            "auto": lambda: count_c1(n, ceiling=ceiling),
            "brute": lambda: sum(
                permanent_dp(build_odd_plus_excluding(n, a).rows)
                for a in range(1, 2 * n + 2, 2)
            ),
        },
        "a": {
            "auto": lambda: count_a(n, ceiling=ceiling),
            "permanent": permanent,
            "brute": lambda: brute_constrained_count(n, "anti"),
        },
        "ck": {
            "auto": lambda: count_ck(n, aux, ceiling=ceiling),
            "permanent": permanent,
            "brute": lambda: brute_constrained_count(n, "gcd_k", k=aux),
        },
    }
    if kind not in table:
        raise ValueError(f"unknown kind {kind!r}")
    check_aux(kind, aux)
    if method not in table[kind]:
        raise ValueError(f"kind {kind!r} has no method {method!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    # every brute route runs permanent_dp over n rows
    if method == "brute":
        if n > ceiling:
            raise CapacityError(f"brute dimension {n} exceeds ceiling {ceiling}")
        _check_brute(n)
    value = table[kind][method]()
    if value < 0:
        raise AssertionError("counts are nonnegative")
    if kind == "c" and value < 1:
        raise AssertionError("C(n) >= 1: the cyclic permutation is coprime")
    return CountResult(kind=kind, n=n, aux=aux, value=value, method=method)
