import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_census.arith import (
    build_sieve,
    coprime_count,
    distinct_primes,
    euler_phi,
    is_prime,
    mertens_product,
    omega,
    omega_array,
    phi_array,
    primes_upto,
)


def trial_spf(m: int) -> int:
    if m == 1:
        return 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def gcd_loop_count(m: int, n: int) -> int:
    # the spec-retained independent oracle for coprime_count
    return sum(1 for j in range(1, n + 1) if gcd(j, m) == 1)


class TestBuildSieve:
    def test_limit_one(self):
        s = build_sieve(1)
        assert s.limit == 1 and s.spf[1] == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_sieve(0)

    def test_small_values(self):
        s = build_sieve(10)
        assert s.spf[9] == 3
        assert s.spf[7] == 7
        assert s.spf[10] == 2

    def test_invariants_exhaustive_small(self, sieve_small):
        spf = sieve_small.spf
        for m in range(2, 10**4 + 1):
            p = int(spf[m])
            assert m % p == 0
            assert trial_spf(p) == p  # p prime
            # factorization reconstructed by repeated division
            k, prod = m, 1
            while k > 1:
                q = int(spf[k])
                prod *= q
                k //= q
            assert prod == m

    def test_spot_check_large(self):
        s = build_sieve(2 * 10**7)
        rng = random.Random(7)
        for _ in range(1000):
            m = rng.randrange(2, 2 * 10**7 + 1)
            assert int(s.spf[m]) == trial_spf(m)

    def test_immutable(self, sieve_small):
        with pytest.raises(ValueError):
            sieve_small.spf[5] = 99


class TestEulerPhi:
    def test_examples(self, sieve_small):
        assert euler_phi(1, sieve_small) == 1
        assert euler_phi(9, sieve_small) == 6
        assert euler_phi(2310, sieve_small) == 480

    def test_out_of_range(self, sieve_small):
        with pytest.raises(ValueError):
            euler_phi(10**4 + 1, sieve_small)

    def test_product_formula(self, sieve_small):
        for m in range(1, 500):
            expected = Fraction(m)
            for p in distinct_primes(m, sieve_small):
                expected *= Fraction(p - 1, p)
            assert euler_phi(m, sieve_small) == expected

    def test_multiplicative_on_random_coprime_pairs(self, sieve_1m):
        rng = random.Random(20260811)
        done = 0
        while done < 1000:
            a = rng.randrange(2, 1000)
            b = rng.randrange(2, 1000)
            if gcd(a, b) != 1:
                continue
            assert euler_phi(a * b, sieve_1m) == euler_phi(a, sieve_1m) * euler_phi(
                b, sieve_1m
            )
            done += 1


class TestOmega:
    def test_examples(self, sieve_small):
        assert omega(1, sieve_small) == 0
        assert omega(12, sieve_small) == 2

    def test_primorial(self, sieve_1m):
        assert omega(30030, sieve_1m) == 6

    def test_matches_distinct_primes(self, sieve_small):
        for m in range(1, 2000):
            assert omega(m, sieve_small) == len(distinct_primes(m, sieve_small))


class TestCoprimeCount:
    def test_examples(self):
        assert coprime_count(1, 7) == 7
        assert coprime_count(6, 10) == 3  # {1, 5, 7}
        assert coprime_count(15, 30) == 16

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coprime_count(0, 5)
        with pytest.raises(ValueError):
            coprime_count(5, 0)

    @given(st.integers(1, 400), st.integers(1, 400))
    @settings(max_examples=200)
    def test_matches_gcd_loop(self, m, n):
        assert coprime_count(m, n) == gcd_loop_count(m, n)

    def test_sieve_error_bound(self, sieve_small):
        # |F(m,n) - (phi/m) n| <= 2^(omega-1) for m > 1, checked exactly
        for m in range(2, 120):
            ph = euler_phi(m, sieve_small)
            w = omega(m, sieve_small)
            for n in range(1, 120):
                lhs = abs(coprime_count(m, n) * m - ph * n)
                assert 2 * lhs <= (1 << w) * m


class TestMertensProduct:
    def test_single_factor(self):
        assert math.isclose(mertens_product(3), 2 / 3, rel_tol=1e-14)

    def test_two_factors(self):
        assert math.isclose(mertens_product(5), 8 / 15, rel_tol=1e-14)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            mertens_product(2.9)

    def test_classical_bracket_at_1e6(self):
        x = 10**6
        m = mertens_product(x)
        lx = math.log(x)
        main = 2.0 / (math.exp(0.5772156649015329) * lx)
        assert main * (1 - 0.5 / lx**2) < m < main * (1 + 0.5 / lx**2)

    def test_strictly_decreasing_across_primes(self):
        values = [mertens_product(int(p)) for p in primes_upto(200)[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("x", [7, 1009, 10**5])
    def test_matches_scalar_fsum(self, x):
        logs = [math.log1p(-1.0 / p) for p in primes_upto(x)[1:].tolist()]
        assert math.isclose(mertens_product(x), math.exp(math.fsum(logs)), rel_tol=1e-13)


class TestBulkTables:
    def test_phi_array_matches_pointwise(self, sieve_small):
        phi = phi_array(3000)
        for m in range(1, 3001):
            assert int(phi[m]) == euler_phi(m, sieve_small)

    def test_omega_array_matches_pointwise(self, sieve_small):
        w = omega_array(3000)
        for m in range(1, 3001):
            assert int(w[m]) == omega(m, sieve_small)

    # limits on both sides of prime squares, where a prime moves between
    # the slice pass (p <= sqrt(limit)) and the cofactor-grouped pass
    @pytest.mark.parametrize(
        "limit",
        [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 10**5 + 3],
    )
    def test_tables_match_pointwise_around_prime_squares(self, limit, sieve_1m):
        phi = phi_array(limit)
        w = omega_array(limit)
        assert len(phi) == len(w) == limit + 1
        assert int(phi[0]) == 0 and int(w[0]) == 0
        assert phi[1:].tolist() == [euler_phi(m, sieve_1m) for m in range(1, limit + 1)]
        assert w[1:].tolist() == [omega(m, sieve_1m) for m in range(1, limit + 1)]

    def test_is_prime(self, sieve_small):
        ps = set(int(p) for p in primes_upto(10**4))
        for m in range(1, 10**4 + 1):
            assert is_prime(m, sieve_small) == (m in ps)
