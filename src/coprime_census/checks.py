"""The verify suites, each a list of check records that the CLI prints
and the acceptance gate asserts.

This is the one module that sets a computed value against a claim:
``counts``, ``dist`` and ``bounds`` return values, and every record, the
tolerance of the diagnostic bracket records and the claimed thresholds
live here.  A failed claim is a failed record, never an exception, so
every record of a suite is listed.  The tables suite reads the rows that
``counts.table_rows`` prints, the rows of ``table``.  Only the tables
suite runs without numpy; the others import ``dist`` and ``bounds``
where they run, and ``counts`` loads only in the suites that count.
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


def tables(max_n: int) -> list[BoundReport]:
    """The rows n <= max_n that ``counts.table_rows`` prints, each set
    against its reference row.

    A row matches when it prints the reference count and ratio.  A row
    the table lists and the reference lacks fails, and so does a
    reference row n <= max_n that the table does not list.  At the five
    errata rows the reference holds the corrected entry, so the check
    asserts the correction rather than the published typo.  A table whose
    first reference row is past max_n is skipped, and a run that compares
    no row raises ``ValueError``: a suite that checked nothing must not
    pass.  Each table runs to its last reference row at most, which the
    default ceiling admits.
    """
    from . import counts

    records = []
    for which, (shown, ref) in _TABLES.items():
        if min(ref) > max_n:
            continue
        rows = counts.table_rows(which, min(max_n, max(ref)))
        printed = {row["n"]: shown.format(row["value"], row["ratio"]) for row in rows}
        for n in sorted(printed.keys() | {n for n in ref if n <= max_n}):
            got = printed.get(n, "no row")
            want = shown.format(*ref[n]) if n in ref else "no reference row"
            records.append(BoundReport(f"{which} n={n}", got, want, "==", got == want))
    if not records:
        raise ValueError(f"the tables suite compared no reference row: none has n <= {max_n}")
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


def lemmas(max_n: int) -> list[BoundReport]:
    """The reduction identities (for 2 <= n <= min(max_n // 2, 12)), the
    C_2, C_3 and A(p) values, the gluing bound, A(22) and A(24) from two
    computations, the distribution checks at n = 10^5: the second
    moment, the top interval, the tail bound at x = 2, 5 and 10 and the
    bracket comparisons, and Bregman's bound on the C0(1000) and C1(1000)
    matrices as r_2000 > 2.5 and r_2001 > 2.5.  The brackets and Bregman
    records are diagnostic: finite-n values set against a limit, Bregman's
    as float sums.  A ``max_n`` below 1 raises ``ValueError``.  The counts
    are uncapped: at any ``max_n`` no permanent among them is above 19
    (the reduced A(24)).
    """
    if max_n < 1:
        raise ValueError(f"the lemmas suite needs max_n >= 1, not {max_n}")
    from . import counts, dist
    from .arith import coprime_count

    make = BoundReport.make
    records = []
    for n in range(2, min(max_n // 2, 12) + 1):
        # C(2n) = C0(n)^2 and 2 C0(n-1)^2 <= C(2n+1) <= C1(n)^2.  The two
        # sides of the square read no common memo: count_c0 may read C0(n)
        # from the minors memo, so the computed side walks the C0(n)
        # matrix itself and the claimed side squares C_(2n+1)(n), the last
        # minor of the ("ca", n) walk; the sandwich's upper side walks C1(n)'s own matrix
        own = counts.compute("c0", n, method="permanent").value
        square = counts.count_c_a(n, 2 * n + 1) ** 2
        c_odd = counts.count_c(2 * n + 1)
        lo, hi = 2 * counts.count_c0(n - 1) ** 2, counts.count_c1(n) ** 2
        records += [
            make(f"square n={n}", own**2, "==", square),
            make(f"sandwich n={n} lower", c_odd, ">=", lo),
            make(f"sandwich n={n} upper", c_odd, "<=", hi),
        ]
    for n in range(1, 7):
        # C_2(2n) = n!^2 and C_2(2n+1) = (n+1)!^2
        even, odd = counts.count_ck(2 * n, 2), counts.count_ck(2 * n + 1, 2)
        records += [
            make(f"parity even n={n}", even, "==", math.factorial(n) ** 2),
            make(f"parity odd n={n}", odd, "==", math.factorial(n + 1) ** 2),
        ]
    for n, value in ((6, 16), (12, 82944)):
        records.append(make(f"threes n={n}", counts.count_ck(n, 3), "==", value))
    for p in (3, 5, 7, 11, 13):
        a_p, a_before = counts.count_a(p), counts.count_a(p - 1)
        records.append(make(f"anti prime p={p}", a_p, "==", a_before))
    for n in (10, 15, 20):
        a_n = counts.count_a(n)
        records.append(make(f"anti gluing n={n}", a_n, ">=", counts.anti_lower(n)))
    for n in (22, 24):
        # count_a eliminates the primes in (sqrt(n), n/2] and sums the walks
        # of the residuals; the claimed side walks the ("a", n) matrix directly
        direct = counts.compute("a", n, method="permanent").value
        records.append(make(f"anti split n={n}", counts.count_a(n), "==", direct))

    n = 10**5
    records.append(make("second moment", dist.second_moment(n), "<", reference.SECOND_MOMENT * n))
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
    # Bregman: per(M) <= prod over the rows of (r!)^(1/r), r the row degree.
    # Row j of C0(m) has degree F(j, m) = coprime_count(j, m), and row j of
    # the C1(m) matrix F(j, m) + 1, as every odd j is coprime to its second
    # column 1.  So one degree table bounds both C(2m) = C0(m)^2 and
    # C(2m+1) <= C1(m)^2, and r_n = (n! / C(n))^(1/n) from below
    m = 1000
    degrees = [coprime_count(j, m) for j in range(1, 2 * m + 2, 2)]
    log_c0 = math.fsum(math.lgamma(r + 1) / r for r in degrees[:-1])
    log_c1 = math.fsum(math.lgamma(r + 2) / (r + 1) for r in degrees)
    for name, n, log_half in (("2n", 2 * m, log_c0), ("n", 2 * m + 1, log_c1)):
        r_n = math.exp((math.lgamma(n + 1) - 2 * log_half) / n)
        records.append(make(f"bregman {name}={n}", r_n, ">", 2.5, diagnostic=True))
    return records


_RS_GRID = (300.0, 1e4, 1e6)  # the lower bracket is cited for x >= 285 only


def bounds() -> list[BoundReport]:
    """The three E-sums of ``bounds`` against their thresholds, their
    assembly into the 1.864 and 3.73 constants and the odd Mertens product
    inside the classical brackets 2/(e^gamma log x) * (1 -+ 1/(2 log^2 x))
    at each x of ``_RS_GRID``.

    The assembly's records are its budget, 0.0538 + 0.2873 + 0.2815 <=
    0.6226 exactly in decimal (the tail's -0.2814 is padded by 1e-4 to
    absorb the last interval), e^0.6226 > 1.8637, the printed prefix of
    the matching lower bound constant, and the two directions the
    n!/3.73^n theorem uses: e^0.6226 <= 1.864, and 2 * 1.864 <= 3.73
    exactly in decimal.  A failed claim is a failed record like any
    other; every record is still listed.
    """
    from decimal import Decimal

    from . import bounds  # the module; inside this function it shadows the suite
    from .arith import mertens_product

    make = BoundReport.make
    budget = sum(map(Decimal, ("0.0538", "0.2873", "0.2815")))
    records = [
        make("esum-dyadic", bounds.esum_dyadic(), ">", -0.0538),
        make("esum-middle", bounds.esum_middle(), ">", -0.2873),
        make("esum-tail", bounds.esum_tail(), ">", -0.2814),
        make("assembly-budget", budget, "<=", Decimal("0.6226")),
        make("assembly-e^0.6226", math.exp(0.6226), ">", 1.8637),
        make("assembly-e^0.6226-upper", math.exp(0.6226), "<=", 1.864),
        make("assembly-2*1.864", 2 * Decimal("1.864"), "<=", Decimal("3.73")),
    ]
    e_gamma = math.exp(bounds.EULER_GAMMA)
    for x in _RS_GRID:
        m, lx = mertens_product(x), math.log(x)
        main = 2.0 / (e_gamma * lx)
        for side, relation, sign in (("lower", ">", -1.0), ("upper", "<", 1.0)):
            claimed = main * (1.0 + sign / (2.0 * lx * lx))
            records.append(make(f"mertens-{side}(x={x:g})", m, relation, claimed))
    return records


# the last prime of the kappa certificate in ``constants``
_KAPPA_LAST = 29


def constants() -> list[BoundReport]:
    """The printed prefixes of c_3 and c_5, the prime-product limit c_0,
    and the exact certificate that the limit 2e^kappa of Bregman's bound
    on the half matrix is above 5/2.

    kappa = sum over odd primes p of -log(1 - 1/p)/p, and each term is
    x^2 + x^3/2 + x^4/3 + ... (x = 1/p), all positive: the first three
    over p = 3.._KAPPA_LAST, in fractions, bound kappa from below.  They
    exceed 1/4 - 1/32 + 1/192 >= ln(5/4), the series of ln(1 + 1/4)
    stopped after a positive term, so kappa > ln(5/4).
    """
    from fractions import Fraction

    from . import bounds
    from .graph import smallest_factor

    make = BoundReport.make
    c3, c5 = bounds.ck_closed(3), bounds.ck_closed(5)
    c0 = bounds.mcnew_product(10**7)
    primes = [p for p in range(3, _KAPPA_LAST + 1, 2) if smallest_factor(p) == p]
    kappa = sum(Fraction(1, p**2) + Fraction(1, 2 * p**3) + Fraction(1, 3 * p**4) for p in primes)
    return [
        # the paper prints c_3 and c_5 truncated to six decimals
        make("c3", int(c3 * 10**6), "==", 2381101),
        make("c5", int(c5 * 10**6), "==", 2504521),
        make("product small", abs(bounds.mcnew_product(5) - c5) / c5, "<", 1e-12),
        make("product limit lower", c0, ">", 2.65044 - 1e-4),
        make("product limit upper", c0, "<", 2.65044 + 1e-4),
        make("kappa lower", kappa, ">", Fraction(1, 4) - Fraction(1, 32) + Fraction(1, 192)),
    ]
