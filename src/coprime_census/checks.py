"""The verify suites, each a list of check records that the CLI prints,
``scripts/verify_bounds.py`` emits as JSON lines and the acceptance gate
asserts.  Only the tables suite runs without numpy; the others import
``dist`` and ``bounds`` where they run.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple

from . import counts, reference

__all__ = ["BoundReport", "tables", "lemmas", "bounds", "constants"]

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
        "name computed claimed relation passed notes diagnostic",
        defaults=("", False),
    )
):
    """One check: a computed value against a claimed one under a relation.

    A diagnostic check sets a finite-n value against the limit, whose
    convergence rate is not known: a miss is reported but fails no run.
    """

    __slots__ = ()

    @classmethod
    def make(cls, name, computed, relation, claimed, notes="", *, diagnostic=False):
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        passed = _RELATIONS[relation](computed, claimed)
        return cls(name, computed, claimed, relation, passed, notes, diagnostic)

    def to_json(self) -> str:
        keys = ("name", "computed", "claimed", "relation", "notes")
        record = {"pass": self.passed, **{k: getattr(self, k) for k in keys}}
        return json.dumps(record, sort_keys=True)


# table -> (how a row prints: the count, then the ratio; its reference rows)
_TABLES = {
    "t1": ("C0={} r={}", reference.TABLE_C0),
    "t2": ("C={} r={}", reference.TABLE_C_ODD),
    "t3": ("A={} u={}", reference.TABLE_A),
}


def tables(max_n: int, ceiling: int) -> list[BoundReport]:
    """Every reference row n <= max_n, recomputed by ``counts.check_table``.

    A run that compares no row raises ``ValueError``: a suite that
    checked nothing must not pass.
    """
    records = []
    for which, (shown, ref) in _TABLES.items():
        for row, passed in counts.check_table(which, max_n, ceiling=ceiling):
            got = shown.format(row.value, counts.format_ratio(row.ratio))
            want = shown.format(*ref[row.n])
            records.append(BoundReport(f"{which} n={row.n}", got, want, "==", passed))
    if not records:
        raise ValueError(
            f"the tables suite compared no reference row: none has n <= {max_n}"
        )
    return records


def lemmas(max_n: int, ceiling: int) -> list[BoundReport]:
    """The reduction identities (for 2 <= n <= min(max_n // 2, 12)), the
    C_2, C_3 and A(p) values, the gluing bound and the distribution checks
    at n = 10^5, whose bracket comparisons are diagnostic.
    """
    from . import dist

    make = BoundReport.make
    kw = {"ceiling": ceiling}
    records = []
    for n in range(2, min(max_n // 2, 12) + 1):
        # C(2n) = C0(n)^2 and 2 C0(n-1)^2 <= C(2n+1) <= C1(n)^2
        square = counts.count_c0(n, **kw) ** 2
        c_odd = counts.count_c(2 * n + 1, **kw)
        lo, hi = 2 * counts.count_c0(n - 1, **kw) ** 2, counts.count_c1(n, **kw) ** 2
        records += [
            make(f"square n={n}", counts.count_c(2 * n, **kw), "==", square),
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

    n = 10**5
    records.append(make("second moment", dist.second_moment(n), "<", 1.78 * n))
    # the number of m in only one of the set and its characterization
    got = dist.top_interval_set(n) ^ dist.top_interval_characterization(n)
    records.append(make("top interval", len(got), "==", 0))
    tol = dist.BRACKET_DIAGNOSTIC_TOL
    for alpha, lower, upper in reference.BRACKETS:
        density = dist.d_count(alpha, n).density
        name = f"bracket alpha={alpha}"
        records += [
            make(f"{name} lower", density, ">=", lower - tol, diagnostic=True),
            make(f"{name} upper", density, "<=", upper + tol, diagnostic=True),
        ]
    return records


def bounds() -> list[BoundReport]:
    """The three E-sums, their assembly into e^0.6226 > 1.8637 and the
    Mertens-bracket reports, each called through the ``bounds`` module."""
    from . import bounds  # the module; inside this function it shadows the suite

    parts = [bounds.esum_dyadic(), bounds.esum_middle(), bounds.esum_tail()]
    return [*parts, bounds.assemble_lower_bound(*parts), *bounds.rs_bracket_check()]


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
