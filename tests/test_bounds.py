import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from coprime_census import bounds, checks
from coprime_census.arith import primes_upto
from coprime_census.bounds import (
    _f_xlogx,
    EULER_GAMMA,
    ck_closed,
    esum_dyadic,
    esum_middle,
    esum_tail,
    mcnew_product,
)
from coprime_census.checks import _RS_GRID, BoundReport
from coprime_census.reference import BRACKETS


def direct_tail_sum(term_tol: float) -> float:
    """The E-sum tail summed term by term, through the first term below
    ``term_tol``: an oracle for the telescoped ``esum_tail``.

    Term i >= 4 is f(g(i-1) - 10^(1-i)) - f(g(i) - 10^(1-i)), with the
    first one started from the last literature bracket; the terms are
    evaluated in numpy chunks of 2^16 indices.
    """

    def g(i):
        L = math.log(2.0) + i * math.log(10.0)
        return 2.0 / (math.exp(EULER_GAMMA) * L) * (1.0 - 7.0 / (4.0 * L * L))

    chunks, lo = [], 4
    while True:
        j = np.arange(lo - 1, lo + (1 << 16), dtype=np.float64)
        g_all = g(j)
        eps = 10.0 ** -j[:-1]
        x = g_all[:-1] - eps
        if lo == 4:
            x[0] = float(BRACKETS[-1][0]) - BRACKETS[-1][2]
        y = g_all[1:] - eps
        terms = x * np.log(x) - y * np.log(y)
        cut = np.nonzero(np.abs(terms) < term_tol)[0]
        if cut.size:
            chunks.append(float(np.sum(terms[: int(cut[0]) + 1])))
            return math.fsum(chunks)
        chunks.append(float(np.sum(terms)))
        lo += 1 << 16


class TestCkClosed:
    def test_two(self):
        assert ck_closed(2) == 2.0

    def test_printed_prefixes(self):
        # published constants are printed truncated to 6 decimals
        assert int(ck_closed(3) * 10**6) == 2381101
        assert int(ck_closed(5) * 10**6) == 2504521

    def test_closed_forms(self):
        assert math.isclose(ck_closed(3), 3 * 2 ** (-1 / 3), rel_tol=1e-15)
        assert math.isclose(
            ck_closed(5), 2 ** (-53 / 15) * 3 ** (8 / 5) * 5, rel_tol=1e-15
        )

    def test_unsupported(self):
        with pytest.raises(ValueError):
            ck_closed(7)


class TestMcNew:
    def test_factor_three(self):
        # the factor at 3 is 3 * 2^(-4/3); with the 2 at p = 2 it is c_3
        assert math.isclose(mcnew_product(3), 2 * 3 * 2 ** (-4 / 3), rel_tol=1e-14)
        assert math.isclose(mcnew_product(3), ck_closed(3), rel_tol=1e-13)

    def test_product_matches_closed_forms(self):
        assert mcnew_product(2) == 2.0
        assert math.isclose(mcnew_product(3), ck_closed(3), rel_tol=1e-12)
        assert math.isclose(mcnew_product(5), ck_closed(5), rel_tol=1e-12)

    def test_product_monotone_in_cutoff(self):
        values = [mcnew_product(p) for p in (2, 3, 5, 7, 11, 101, 1009)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("P", [7, 1009, 10**5])
    def test_product_matches_scalar_fsum(self, P):
        logs = [math.log(2.0)] + [
            math.log(p)
            + (1.0 - 2.0 / p) * math.log(p - 2)
            - 2.0 * (1.0 - 1.0 / p) * math.log(p - 1)
            for p in primes_upto(P)[1:].tolist()
        ]
        assert math.isclose(mcnew_product(P), math.exp(math.fsum(logs)), rel_tol=1e-13)

    def test_product_peak_memory_at_1e7(self, traced_peak_mib):
        # one segment of the odd prime sieve and its logs at a time
        assert traced_peak_mib("bounds", "bounds.mcnew_product(10**7)") < 2

    def test_factors_exceed_one_and_converge(self):
        # the factor at prime p is the ratio of the products up to p and p - 1
        def factor(p):
            return mcnew_product(p) / mcnew_product(p - 1)

        for p in (3, 5, 7, 11, 13, 101, 997):
            assert factor(p) > 1.0
        for p in (101, 997, 9973):
            assert factor(p) - 1.0 < 1e-2


class TestEsums:
    def test_dyadic(self):
        value = esum_dyadic()
        assert -0.0538 < value < 0.0
        # frozen from the defining series (independent evaluation)
        assert math.isclose(value, -0.0537288245, abs_tol=1e-9)

    def test_dyadic_remainder_bound(self):
        # the terms past the last summed index, summed directly to i = 80 at
        # 60 digits (float64 loses them to cancellation near i = 50), stay
        # inside the remainder bound esum_dyadic documents
        last = bounds._DYADIC_LAST
        bound = 5.34 * math.log(2.0) * 4.0 ** -(last + 1) * (4 * (last + 2) / 3 + 4 / 9)
        ctx = decimal.Context(prec=60)

        def f(x):
            return x * x.ln(ctx)

        def term(i):
            a = ctx.divide(1, 2**i)
            return f(a - ctx.divide(Decimal("1.78"), 4**i)) - f(
                a - ctx.divide(Decimal("1.78"), 4 ** (i - 1))
            )

        rest = [term(i) for i in range(last + 1, 81)]
        assert all(t < 0 for t in rest)
        assert 0 < -float(sum(rest)) < bound < 1e-15
        # the summed part is the float sum of the defining terms
        cap = BRACKETS[0][2]
        summed = [
            _f_xlogx(0.5**i - min(1.78 / 4.0**i, cap))
            - _f_xlogx(0.5**i - min(1.78 / 4.0 ** (i - 1), cap))
            for i in range(2, last + 1)
        ]
        assert math.fsum(summed) == esum_dyadic()

    def test_middle(self):
        value = esum_middle()
        assert value > -0.2873
        assert math.isclose(value, -0.2872508215, abs_tol=1e-9)

    def test_middle_first_pair_cancels(self):
        assert _f_xlogx(0.25 - 0.02352) - _f_xlogx(0.25 - 0.02352) == 0.0

    def test_middle_half_pair_sign(self):
        # f is decreasing below 1/e and increasing above; this pair mixes
        # both regions and comes out positive by direct evaluation
        pair = _f_xlogx(0.5 - 0.02352) - _f_xlogx(0.5 - 0.1624)
        assert math.isclose(pair, 0.0133690, abs_tol=1e-6)
        assert pair > 0

    def test_tail(self):
        value = esum_tail()
        assert -0.2814 < value < -0.28
        assert value == -0.28131280167725964

    def test_tail_refuses_an_infeasible_shift(self, monkeypatch):
        # g(i) below the shift 10^(1-i) leaves no mass for the term
        monkeypatch.setattr(bounds, "_tail_g", lambda i: 10.0 ** (1 - i) / 2)
        with pytest.raises(RuntimeError, match="feasibility"):
            esum_tail()

    def test_tail_terms_all_negative(self):
        # partial sums only decrease, so every truncation stays above the
        # infinite sum that esum_tail telescopes to, and the 1e-12
        # truncation is within its remainder bound 2.91e-6 of it
        full = esum_tail()
        coarse, fine, finest = (direct_tail_sum(tol) for tol in (1e-6, 1e-10, 1e-12))
        assert full < finest < fine < coarse < 0.0
        assert finest - full < 2.91e-6

class TestAssembly:
    def test_passes(self):
        by_name = {rep.name: rep for rep in checks.bounds()}
        assert len(by_name) == 10 and all(rep.passed for rep in by_name.values())
        rep = by_name["assembly-e^0.6226"]
        assert math.isclose(rep.computed, math.exp(0.6226), rel_tol=1e-15)
        assert rep.computed > 1.8637
        sums = {"esum-dyadic": esum_dyadic, "esum-middle": esum_middle, "esum-tail": esum_tail}
        for name, esum in sums.items():
            assert by_name[name].computed == esum()

    def test_budget_is_exact_in_decimal(self):
        from decimal import Decimal

        parts = [Decimal("0.0538"), Decimal("0.2873"), Decimal("0.2815")]
        assert sum(parts) == Decimal("0.6226")

    def test_fails_loudly_on_failed_subreport(self, monkeypatch):
        monkeypatch.setattr(bounds, "esum_middle", lambda: -1.0)
        with pytest.raises(RuntimeError, match="sub-report failed: esum-middle"):
            checks.bounds()


class TestRsBrackets:
    def test_grid_passes(self):
        reports = [rep for rep in checks.bounds() if rep.name.startswith("mertens-")]
        assert len(reports) == 6
        assert all(r.passed for r in reports)

    def test_rejects_small_x(self):
        # the lower bracket is cited for x >= 285 only
        assert min(_RS_GRID) >= 285


class TestBoundReport:
    def test_pass_iff_relation_holds(self):
        assert BoundReport.make("x", 1.0, "<", 2.0).passed
        assert not BoundReport.make("x", 3.0, "<", 2.0).passed
        assert BoundReport.make("x", 2.0, "<=", 2.0).passed
        assert BoundReport.make("x", 10**20 + 1, "==", 10**20 + 1).passed
        assert not BoundReport.make("x", 10**20 + 1, "==", 10**20).passed

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            BoundReport.make("x", 1.0, "!=", 2.0)


def test_f_xlogx_continuity_at_zero():
    assert _f_xlogx(0.0) == 0.0
    assert _f_xlogx(1.0) == 0.0
    assert _f_xlogx(0.5) < 0
