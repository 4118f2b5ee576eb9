"""The verify suites, each a list of check records that the CLI prints
and the acceptance gate asserts.

This is the one module that sets a computed value against a claim:
``counts``, ``dist`` and ``bounds`` return values, and every record, the
tolerance of the diagnostic bracket records and the claimed thresholds
live here.  Only the tables suite runs without numpy; the others import
``dist`` and ``bounds`` where they run, and ``counts`` loads only in the
suites that count.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from . import reference

__all__ = [
    "BoundReport",
    "BRACKET_DIAGNOSTIC_TOL",
    "tables",
    "tail_upper",
    "lemmas",
    "bounds",
    "constants",
]

_RELATIONS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
}


class BoundReport(
    namedtuple(
        "BoundReport",
        "name computed claimed relation passed diagnostic",
        defaults=(False,),
    )
):
    """One check: a computed value against a claimed one under a relation.

    A diagnostic check sets a finite-n value against the limit, whose
    convergence rate is not known: a miss is reported but fails no run.
    """

    __slots__ = ()

    @classmethod
    def make(cls, name, computed, relation, claimed, *, diagnostic=False):
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        passed = _RELATIONS[relation](computed, claimed)
        return cls(name, computed, claimed, relation, passed, diagnostic)


# diagnostic tolerance when comparing finite-n densities against the
# literature brackets for the limit (reference.BRACKETS); the convergence
# rate is not known, so bracket comparisons warn rather than fail
BRACKET_DIAGNOSTIC_TOL = 0.004


# table -> (how a row prints: the count, then the ratio; its reference rows)
_TABLES = {
    "t1": ("C0={} r={}", reference.TABLE_C0),
    "t2": ("C={} r={}", reference.TABLE_C_ODD),
    "t3": ("A={} u={}", reference.TABLE_A),
}


def tables(max_n: int, ceiling: int) -> list[BoundReport]:
    """Every reference row n <= max_n, recomputed by ``counts.table_row``.

    A row matches when its count equals the reference value and its ratio
    prints as the reference string.  At the five errata rows the
    reference holds the corrected entry, so the check asserts the
    correction rather than the published typo.  A run that compares no
    row raises ``ValueError``: a suite that checked nothing must not pass.
    """
    from . import counts

    records = []
    for which, (shown, ref) in _TABLES.items():
        for n, want in ref.items():
            if n > max_n:
                continue
            row = counts.table_row(which, n, ceiling=ceiling)
            got = (row.value, counts.format_ratio(row.ratio))
            records.append(
                BoundReport(f"{which} n={n}", shown.format(*got), shown.format(*want), "==", got == want)
            )
    if not records:
        raise ValueError(
            f"the tables suite compared no reference row: none has n <= {max_n}"
        )
    return records


def tail_upper(x, n: int) -> BoundReport:
    """1 - D(1 - 1/x, n)/n <= M(x) - 1/sqrt(n) at finite n, for 2 <= x <= log n,
    with M the odd Mertens product (1 below x = 3)."""
    from . import dist
    from .arith import mertens_product

    xf = dist.as_fraction(x)
    if not 2 <= xf <= math.log(n):
        raise ValueError(f"x={x} outside the valid range [2, log n]")
    lhs = 1.0 - dist.d_count(1 - 1 / xf, n).density
    mprod = 1.0 if xf < 3 else mertens_product(float(xf))
    return BoundReport.make(f"tail upper x={x}", lhs, "<=", mprod - 1.0 / math.sqrt(n))


def lemmas(max_n: int, ceiling: int) -> list[BoundReport]:
    """The reduction identities (for 2 <= n <= min(max_n // 2, 12)), the
    C_2, C_3 and A(p) values, the gluing bound, A(22) and A(24) from two
    computations and the distribution checks at n = 10^5: the second
    moment, the top interval, the tail bound at x = 2, 5 and 10 and the
    bracket comparisons, which are diagnostic.
    """
    from . import counts, dist

    make = BoundReport.make
    kw = {"ceiling": ceiling}
    records = []
    for n in range(2, min(max_n // 2, 12) + 1):
        # C(2n) = C0(n)^2 and 2 C0(n-1)^2 <= C(2n+1) <= C1(n)^2.  The two
        # sides of the square read no common memo: count_c0 may read C0(n)
        # from the minors memo, so the computed side walks the C0(n)
        # matrix itself and the claimed side squares C_(2n+1)(n), the last
        # minor of the ("ca", n) walk
        own = counts.compute("c0", n, method="permanent", **kw).value
        square = counts.count_c_a(n, 2 * n + 1, **kw) ** 2
        c_odd = counts.count_c(2 * n + 1, **kw)
        lo, hi = 2 * counts.count_c0(n - 1, **kw) ** 2, counts.count_c1(n, **kw) ** 2
        records += [
            make(f"square n={n}", own**2, "==", square),
            make(f"sandwich n={n} lower", c_odd, ">=", lo),
            make(f"sandwich n={n} upper", c_odd, "<=", hi),
        ]
    for n in range(1, 7):
        # C_2(2n) = n!^2 and C_2(2n+1) = (n+1)!^2
        even, odd = counts.count_ck(2 * n, 2, **kw), counts.count_ck(2 * n + 1, 2, **kw)
        records += [
            make(f"parity even n={n}", even, "==", math.factorial(n) ** 2),
            make(f"parity odd n={n}", odd, "==", math.factorial(n + 1) ** 2),
        ]
    for n, value in ((6, 16), (12, 82944)):
        records.append(make(f"threes n={n}", counts.count_ck(n, 3, **kw), "==", value))
    for p in (3, 5, 7, 11, 13):
        a_p, a_before = counts.count_a(p, **kw), counts.count_a(p - 1, **kw)
        records.append(make(f"anti prime p={p}", a_p, "==", a_before))
    for n in (10, 15, 20):
        a_n = counts.count_a(n, **kw)
        records.append(make(f"anti gluing n={n}", a_n, ">=", counts.anti_lower(n)))
    for n in (22, 24):
        # count_a eliminates the primes in (sqrt(n), n/2] and sums the walks
        # of the residuals; the claimed side walks the ("a", n) matrix directly
        direct = counts.compute("a", n, method="permanent", **kw).value
        records.append(make(f"anti split n={n}", counts.count_a(n, **kw), "==", direct))

    n = 10**5
    records.append(make("second moment", dist.second_moment(n), "<", 1.78 * n))
    # the number of m in only one of the set and its characterization
    records.append(make("top interval", dist.top_interval_check(n)[1], "==", 0))
    records += [tail_upper(x, n) for x in (2, 5, 10)]
    tol = BRACKET_DIAGNOSTIC_TOL
    estimates = dist.d_counts([alpha for alpha, _, _ in reference.BRACKETS], n)
    for (alpha, lower, upper), est in zip(reference.BRACKETS, estimates):
        name = f"bracket alpha={alpha}"
        records += [
            make(f"{name} lower", est.density, ">=", lower - tol, diagnostic=True),
            make(f"{name} upper", est.density, "<=", upper + tol, diagnostic=True),
        ]
    return records


_RS_GRID = (300.0, 1e4, 1e6)  # the lower bracket is cited for x >= 285 only


def bounds() -> list[BoundReport]:
    """The three E-sums of ``bounds`` against their thresholds, their
    assembly into e^0.6226 > 1.8637 and the odd Mertens product inside
    the classical brackets 2/(e^gamma log x) * (1 -+ 1/(2 log^2 x)) at
    each x of ``_RS_GRID``.

    The assembly checks that 0.0538 + 0.2873 + 0.2815 <= 0.6226 exactly
    in decimal (the tail's -0.2814 is padded by 1e-4 to absorb the last
    interval) and that e^0.6226 > 1.8637, which yields the matching lower
    bound constant 1.864 and, after squaring and doubling, the 3.73 of
    the permutation bound.  A failed E-sum or an exceeded budget raises
    ``RuntimeError``.
    """
    from decimal import Decimal

    from . import bounds  # the module; inside this function it shadows the suite
    from .arith import mertens_product

    make = BoundReport.make
    records = [
        make("esum-dyadic", bounds.esum_dyadic(), ">", -0.0538),
        make("esum-middle", bounds.esum_middle(), ">", -0.2873),
        make("esum-tail", bounds.esum_tail(), ">", -0.2814),
    ]
    for rec in records:
        if not rec.passed:
            raise RuntimeError(f"sub-report failed: {rec.name}")
    if sum(map(Decimal, ("0.0538", "0.2873", "0.2815"))) > Decimal("0.6226"):
        raise RuntimeError("interval contributions exceed the 0.6226 budget")
    records.append(make("assembly-e^0.6226", math.exp(0.6226), ">", 1.8637))
    e_gamma = math.exp(bounds.EULER_GAMMA)
    for x in _RS_GRID:
        m, lx = mertens_product(x), math.log(x)
        main = 2.0 / (e_gamma * lx)
        for side, relation, sign in (("lower", ">", -1.0), ("upper", "<", 1.0)):
            claimed = main * (1.0 + sign / (2.0 * lx * lx))
            records.append(make(f"mertens-{side}(x={x:g})", m, relation, claimed))
    return records


def constants() -> list[BoundReport]:
    """The printed prefixes of c_3 and c_5 and the prime-product limit c_0."""
    from . import bounds

    make = BoundReport.make
    c3, c5 = bounds.ck_closed(3), bounds.ck_closed(5)
    c0 = bounds.mcnew_product(10**7)
    return [
        # the paper prints c_3 and c_5 truncated to six decimals
        make("c3", int(c3 * 10**6), "==", 2381101),
        make("c5", int(c5 * 10**6), "==", 2504521),
        make("product small", abs(bounds.mcnew_product(5) - c5) / c5, "<", 1e-12),
        make("product limit lower", c0, ">", 2.65044 - 1e-4),
        make("product limit upper", c0, "<", 2.65044 + 1e-4),
    ]
