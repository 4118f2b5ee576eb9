import json
import math

import pytest

from coprime_census.arith import primes_upto
from coprime_census.bounds import (
    _RS_GRID,
    assemble_lower_bound,
    ck_closed,
    esum_dyadic,
    esum_middle,
    esum_tail,
    f_xlogx,
    mcnew_factor,
    mcnew_product,
    rs_bracket_check,
)
from coprime_census.checks import BoundReport


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
    def test_factor_two(self):
        assert mcnew_factor(2) == 2.0

    def test_factor_three(self):
        assert math.isclose(mcnew_factor(3), 3 * 2 ** (-4 / 3), rel_tol=1e-14)
        assert math.isclose(
            mcnew_factor(2) * mcnew_factor(3), ck_closed(3), rel_tol=1e-13
        )

    def test_factor_rejects_composite(self):
        with pytest.raises(ValueError):
            mcnew_factor(9)

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

    def test_factors_exceed_one_and_converge(self):
        for p in (3, 5, 7, 11, 13, 101, 997):
            assert mcnew_factor(p) > 1.0
        for p in (101, 997, 9973):
            assert mcnew_factor(p) - 1.0 < 1e-2


class TestEsums:
    def test_dyadic(self):
        rep = esum_dyadic()
        assert rep.passed
        assert -0.0538 < rep.computed < 0.0
        # frozen from the defining series (independent evaluation)
        assert math.isclose(rep.computed, -0.0537288245, abs_tol=1e-9)

    def test_dyadic_truncation_insensitive(self):
        a = esum_dyadic(term_tol=1e-12).computed
        b = esum_dyadic(term_tol=1e-15).computed
        assert abs(a - b) < 1e-11

    def test_middle(self):
        rep = esum_middle()
        assert rep.passed
        assert math.isclose(rep.computed, -0.2872508215, abs_tol=1e-9)

    def test_middle_first_pair_cancels(self):
        assert f_xlogx(0.25 - 0.02352) - f_xlogx(0.25 - 0.02352) == 0.0

    def test_middle_half_pair_sign(self):
        # f is decreasing below 1/e and increasing above; this pair mixes
        # both regions and comes out positive by direct evaluation
        pair = f_xlogx(0.5 - 0.02352) - f_xlogx(0.5 - 0.1624)
        assert math.isclose(pair, 0.0133690, abs_tol=1e-6)
        assert pair > 0

    def test_tail(self):
        rep = esum_tail()
        assert rep.passed
        assert -0.2814 < rep.computed < -0.28
        assert math.isclose(rep.computed, -0.28131, abs_tol=1e-4)
        assert "holds for all i: True" in rep.notes

    def test_tail_terms_all_negative(self):
        # partial sums only decrease, so any truncation stays above the
        # infinite sum and the infinite-sum check is the strongest form
        coarse = esum_tail(term_tol=1e-6).computed
        fine = esum_tail(term_tol=1e-10).computed
        assert fine < coarse < 0.0

class TestAssembly:
    def test_passes(self):
        rep = assemble_lower_bound(esum_dyadic(), esum_middle(), esum_tail())
        assert rep.passed
        assert math.isclose(rep.computed, math.exp(0.6226), rel_tol=1e-15)
        assert rep.computed > 1.8637
        assert "1.864" in rep.notes and "3.73" in rep.notes

    def test_budget_is_exact_in_decimal(self):
        from decimal import Decimal

        parts = [Decimal("0.0538"), Decimal("0.2873"), Decimal("0.2815")]
        assert sum(parts) == Decimal("0.6226")

    def test_fails_loudly_on_failed_subreport(self):
        bad = BoundReport.make("stub", computed=-1.0, relation=">", claimed=0.0)
        assert not bad.passed
        with pytest.raises(RuntimeError):
            assemble_lower_bound(bad, esum_middle(), esum_tail())


class TestRsBrackets:
    def test_grid_passes(self):
        reports = rs_bracket_check()
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

    def test_json_fields(self):
        rep = BoundReport.make("x", 1.0, "<", 2.0, notes="n")
        data = json.loads(rep.to_json())
        assert set(data) == {"name", "computed", "claimed", "relation", "pass", "notes"}
        assert data["pass"] is True

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            BoundReport.make("x", 1.0, "!=", 2.0)


def test_f_xlogx_continuity_at_zero():
    assert f_xlogx(0.0) == 0.0
    assert f_xlogx(1.0) == 0.0
    assert f_xlogx(0.5) < 0
