import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from coprime_census import arith, checks, dist
from coprime_census.arith import coprime_count, odd_phi, primes_upto
from coprime_census.dist import (
    _scaled_sum,
    _second_moment_constant,
    _top_interval_characterization,
    _top_interval_set,
    as_fraction,
    d_count,
    d_counts,
    second_moment,
    top_interval_check,
)
from coprime_census.reference import BRACKETS


def brute_d_count(alpha: Fraction, n: int) -> int:
    # phi(m) as coprime_count(m, m), the trial-division path
    count = 0
    for m in range(1, 2 * n, 2):
        if coprime_count(m, m) * alpha.denominator <= alpha.numerator * m:
            count += 1
    return count


class TestDCount:
    def test_alpha_one(self):
        for n in (1, 5, 50):
            assert d_count(1, n).count == n

    def test_alpha_zero(self):
        assert d_count(0, 100).count == 0

    def test_small_example(self):
        est = d_count("0.7", 3)
        assert est.count == 1 and est.alpha == Fraction(7, 10)

    def test_against_brute(self):
        for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
            for n in (10, 100, 700):
                assert d_count(alpha, n).count == brute_d_count(alpha, n)

    def test_boundary_ratio_exact(self):
        # phi(3)/3 = 2/3 must count at alpha = 2/3 and not below
        a = Fraction(2, 3)
        below = a - Fraction(1, 10**9)
        n = 5
        assert d_count(a, n).count - d_count(below, n).count >= 1

    def test_monotone_in_alpha(self):
        n = 10**5
        counts = [est.count for est in d_counts([Fraction(k, 100) for k in range(101)], n)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_peak_memory_at_1e6(self, traced_peak_mib):
        # two sieve segments and one segment of cross-products; the odd phi
        # table this scan used to hold was 8 MB
        assert traced_peak_mib("dist", "dist.d_count(dist.Fraction(1, 2), 10**6)") < 4

    def test_cutoffs_share_one_pass(self, monkeypatch):
        passes = []
        sieve = dist.odd_phi

        def counted(n):
            passes.append(n)
            return sieve(n)

        monkeypatch.setattr(dist, "odd_phi", counted)
        grid = [Fraction(k, 7) for k in range(8)]
        got = d_counts(grid, 5000)
        assert passes == [5000]
        monkeypatch.undo()
        assert got == [d_count(alpha, 5000) for alpha in grid]

    def test_cross_products_past_int32_at_the_seams(self):
        # 99,999 * m passes 2^31 for every m past 21,475, and 10^5 * phi(m)
        # for every prime past it; the scan spans three sieve segments and
        # part of a fourth
        n = 3 * arith._SEGMENT + 1234
        alpha = Fraction(99_999, 100_000)
        phi = [v for _, ph in odd_phi(n) for v in ph.tolist()]
        want = sum(1 for m, ph in zip(range(1, 2 * n, 2), phi) if 100_000 * ph <= 99_999 * m)
        assert d_count(alpha, n).count == want

    def test_twenty_digit_denominators_take_the_exact_branch(self, monkeypatch):
        # q * phi(m) >= q >= 2^62, so the cross-products are compared as
        # Python ints: the int64 comparison would overflow
        third = Fraction(2, 3)
        cuts = [third - Fraction(1, 10**25), third + Fraction(1, 10**25)]
        cuts.append(Fraction("0.12345678901234567891"))

        def int64_branch(*args, **kwargs):
            raise AssertionError("the int64 comparison ran")

        monkeypatch.setattr(dist.np, "count_nonzero", int64_branch)
        for alpha in cuts:
            assert alpha.denominator >= 2**62
            for n in (2, 10, 700):
                assert d_count(alpha, n).count == brute_d_count(alpha, n), (alpha, n)
        # phi(3)/3 = 2/3 lies between the first two: only the upper one counts m = 3
        assert [d_count(alpha, 2).count for alpha in cuts[:2]] == [0, 1]

    def test_density_near_bracket_at_1e6(self):
        est = d_count(Fraction(1, 2), 10**6)
        alpha, lower, upper = BRACKETS[0]
        assert alpha == Fraction(1, 2)
        assert lower - 0.004 <= est.density <= upper + 0.004

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            d_count(Fraction(11, 10), 10)


class TestSecondMoment:
    def test_tiny(self):
        assert second_moment(1) == 1.0
        assert second_moment(2) == 3.25

    def test_chunks_sum_to_the_exact_scaled_total(self):
        # 40,000 odd m span two chunks of the numpy sum
        n = 40_000
        acc = sum(
            (m * m << 80) // coprime_count(m, m) ** 2 for m in range(1, 2 * n, 2)
        )
        assert second_moment(n) == acc / 2**80

    def test_long_division_digits_agree_with_python_ints(self):
        rng = random.Random(12)
        m = np.array([rng.randrange(1, 2 * 10**6, 2) for _ in range(5000)], dtype=np.int64)
        ph = np.array([rng.randrange(1, int(v) + 1) for v in m], dtype=np.int64)
        exact = sum((a * a << 80) // (b * b) for a, b in zip(m.tolist(), ph.tolist()))
        w_max = 62 - (int(ph.max()) ** 2).bit_length()
        # w = 0 forms Python ints; every digit width up to w_max is exact
        for w in (0, 1, 3, 7, 19, w_max):
            assert _scaled_sum(m, ph, w) == exact, w

    def test_peak_memory_at_1e6(self, traced_peak_mib):
        # two sieve segments and one segment of long division
        assert traced_peak_mib("dist", "dist.second_moment(10**6)") < 4

    @pytest.mark.extended
    def test_peak_memory_does_not_grow_with_n(self, traced_peak_mib):
        # the same bound ten times further out: no table as long as the range
        assert traced_peak_mib("dist", "dist.second_moment(10**7)") < 4

    def test_bound_at_1e5(self):
        n = 10**5
        val = second_moment(n)
        assert 1.5 * n < val < 1.78 * n

    def test_constant_small(self):
        assert math.isclose(_second_moment_constant(3), 1 + 5 / 12, rel_tol=1e-14)

    def test_constant_below_limit(self):
        assert _second_moment_constant(10**5) < 1.7725

    @pytest.mark.parametrize("P", [7, 1009, 10**5])
    def test_constant_matches_scalar_fsum(self, P):
        # exact integer ratio per prime, rounded once by the division
        logs = [
            math.log1p((2 * p - 1) / ((p - 1) ** 2 * p))
            for p in primes_upto(P)[1:].tolist()
        ]
        assert math.isclose(
            _second_moment_constant(P), math.exp(math.fsum(logs)), rel_tol=1e-13
        )


class TestTopInterval:
    def test_example(self):
        got = _top_interval_set(5)
        assert got.dtype == np.int64 and got.tolist() == [1, 5, 7]

    def test_characterization_small(self):
        # p^2 = 2n + 1 at n = 4, 12, 24, 60 and p^2 = 2n - 1 at n = 5, 13,
        # 25, 61; at n = 1.1e6, 2n * (2n)^2 passes 2^63
        for n in (2, 4, 5, 10, 12, 13, 24, 25, 50, 60, 61, 1000, 1_100_000):
            got, want = _top_interval_set(n), _top_interval_characterization(n)
            assert np.array_equal(got, want), n
            assert top_interval_check(n) == (len(want), 0), n

    def test_check_counts_each_mismatch(self, monkeypatch):
        from coprime_census import arith, checks, dist

        want = _top_interval_characterization(1000)  # 1 and the primes in (44, 2000)
        monkeypatch.setattr(dist, "_top_interval_characterization", lambda n: want[1:])
        assert top_interval_check(1000) == (len(want), 1)
        monkeypatch.setattr(dist, "_top_interval_characterization", lambda n: np.append(want, 2001))
        assert top_interval_check(1000) == (len(want), 1)

    def test_peak_memory_at_1e6(self, traced_peak_mib):
        # two int64 arrays of 148,711 entries and their symmetric difference;
        # as two sets of Python ints the check peaked past 18 MiB
        assert traced_peak_mib("dist", "dist.top_interval_check(10**6)") < 8

    def test_rejects_n_past_int64(self):
        # m^2 would pass 2^63; refused before any table is built
        with pytest.raises(ValueError, match="too large"):
            _top_interval_set(1_500_000_000)

    def test_characterization_has_one_and_primes(self):
        got = _top_interval_characterization(50).tolist()
        assert got[0] == 1
        assert all(v > 10 for v in got[1:])


class TestEpBounds:
    def test_upper_examples(self):
        for x in (2, 5):
            rep = checks.tail_upper(x, 10**5)
            assert rep.passed, rep
            assert rep.name == f"tail upper x={x}"

    def test_upper_range_check(self):
        with pytest.raises(ValueError):
            checks.tail_upper(13, 1000)  # 13 > log(1000)


class TestBracketTable:
    def test_rows(self):
        assert len(BRACKETS) == 7
        assert BRACKETS[2] == (as_fraction("0.7"), 0.3556, 0.3794)
        assert BRACKETS[4] == (Fraction(9, 10), 0.5644, 0.6310)
        assert BRACKETS[5] == (Fraction(99, 100), 0.7593, 0.7949)

    def test_brackets_are_ordered(self):
        for _, lower, upper in BRACKETS:
            assert lower < upper

    def test_diagnostic_tolerance_is_flagged(self):
        assert checks.BRACKET_DIAGNOSTIC_TOL == 0.004


class TestAsFraction:
    def test_float_reads_as_decimal(self):
        assert as_fraction(0.7) == Fraction(7, 10)
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_exact_forms(self):
        assert as_fraction(1) == Fraction(1)
        assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)

    def test_string_forms(self):
        assert as_fraction("2/3") == Fraction(2, 3)
        assert as_fraction("0.999") == Fraction(999, 1000)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction("1/0")

