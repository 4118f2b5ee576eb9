import math
from fractions import Fraction
from math import gcd

import pytest

from coprime_census.arith import build_sieve, euler_phi, primes_upto
from coprime_census.dist import (
    BRACKET_DIAGNOSTIC_TOL,
    as_fraction,
    d_count,
    ep_upper_check,
    second_moment,
    second_moment_constant,
    top_interval_characterization,
    top_interval_set,
)
from coprime_census.reference import BRACKETS


def brute_d_count(alpha: Fraction, n: int, sieve) -> int:
    count = 0
    for m in range(1, 2 * n, 2):
        if euler_phi(m, sieve) * alpha.denominator <= alpha.numerator * m:
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

    def test_against_brute(self, sieve_small):
        for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
            for n in (10, 100, 700):
                assert d_count(alpha, n).count == brute_d_count(alpha, n, sieve_small)

    def test_boundary_ratio_exact(self, sieve_small):
        # phi(3)/3 = 2/3 must count at alpha = 2/3 and not below
        a = Fraction(2, 3)
        below = a - Fraction(1, 10**9)
        n = 5
        assert d_count(a, n).count - d_count(below, n).count >= 1

    def test_monotone_in_alpha(self):
        n = 10**5
        counts = [d_count(Fraction(k, 100), n).count for k in range(0, 101)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

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
        sieve = build_sieve(2 * n)
        acc = sum(
            (m * m << 80) // euler_phi(m, sieve) ** 2 for m in range(1, 2 * n, 2)
        )
        assert second_moment(n) == acc / 2**80

    def test_bound_at_1e5(self):
        n = 10**5
        val = second_moment(n)
        assert 1.5 * n < val < 1.78 * n

    def test_constant_small(self):
        assert math.isclose(second_moment_constant(3), 1 + 5 / 12, rel_tol=1e-14)

    def test_constant_below_limit(self):
        assert second_moment_constant(10**5) < 1.7725

    @pytest.mark.parametrize("P", [7, 1009, 10**5])
    def test_constant_matches_scalar_fsum(self, P):
        # exact integer ratio per prime, rounded once by the division
        logs = [
            math.log1p((2 * p - 1) / ((p - 1) ** 2 * p))
            for p in primes_upto(P)[1:].tolist()
        ]
        assert math.isclose(
            second_moment_constant(P), math.exp(math.fsum(logs)), rel_tol=1e-13
        )


class TestTopInterval:
    def test_example(self):
        assert top_interval_set(5) == {1, 5, 7}

    def test_characterization_small(self):
        for n in (2, 10, 50, 1000):
            assert top_interval_set(n) == top_interval_characterization(n)

    def test_characterization_has_one_and_primes(self):
        got = top_interval_characterization(50)
        assert 1 in got
        assert all(v == 1 or v > 10 for v in got)


class TestEpBounds:
    def test_upper_examples(self):
        for x in (2, 5):
            rep = ep_upper_check(x, 10**5)
            assert rep.passed, rep

    def test_upper_range_check(self):
        with pytest.raises(ValueError):
            ep_upper_check(13, 1000)  # 13 > log(1000)


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
        assert BRACKET_DIAGNOSTIC_TOL == 0.004


class TestAsFraction:
    def test_float_reads_as_decimal(self):
        assert as_fraction(0.7) == Fraction(7, 10)
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_string_forms(self):
        assert as_fraction("2/3") == Fraction(2, 3)
        assert as_fraction("0.999") == Fraction(999, 1000)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction("1/0")
