import itertools
import math
import operator
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_census import arith
from coprime_census.arith import (
    coprime_count,
    mertens_product,
    odd_phi,
    primes_upto,
)
from coprime_census.graph import prime_factors, smallest_factor


def phi_table(n: int) -> np.ndarray:
    """phi over the odd m < 2n, the segments of ``odd_phi`` joined."""
    return np.concatenate([ph for _, ph in odd_phi(n)])


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


class TestEulerPhi:
    """phi(m) is coprime_count(m, m), the trial-division path."""

    def test_examples(self):
        assert coprime_count(1, 1) == 1
        assert coprime_count(9, 9) == 6
        assert coprime_count(2310, 2310) == 480

    def test_product_formula(self):
        # m * prod (1 - 1/p) over the primes of the numpy sieve that divide m
        ps = primes_upto(500).tolist()
        for m in range(1, 500):
            expected = Fraction(m)
            for p in ps:
                if m % p == 0:
                    expected *= Fraction(p - 1, p)
            assert coprime_count(m, m) == expected

    def test_multiplicative_on_random_coprime_pairs(self):
        rng = random.Random(20260811)
        done = 0
        while done < 1000:
            a = rng.randrange(2, 1000)
            b = rng.randrange(2, 1000)
            if gcd(a, b) != 1:
                continue
            assert coprime_count(a * b, a * b) == coprime_count(a, a) * coprime_count(b, b)
            done += 1


class TestOmega:
    def test_primorial(self):
        # omega(m) = k forces m >= p_k#, the product of the first k primes:
        # the bound under criterion 9's sqrt(m) > 2^(omega(m) - 1)
        primorials = list(itertools.accumulate(primes_upto(13).tolist(), operator.mul, initial=1))
        assert primorials[6] == 30030 and len(prime_factors(30030)) == 6
        for m in range(1, 30031):
            assert m >= primorials[len(prime_factors(m))], m


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

    def test_sieve_error_bound(self, omega_of):
        # |F(m,n) - (phi/m) n| <= 2^(omega-1) for m > 1, checked exactly
        for m in range(2, 120):
            ph = coprime_count(m, m)
            w = omega_of(m)
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
    """The numpy phi table against the trial-division path, phi(m) as
    coprime_count(m, m)."""

    def test_phi_array_matches_pointwise(self):
        phi = phi_table(1500)
        assert len(phi) == 1500
        for i, m in enumerate(range(1, 3000, 2)):
            assert int(phi[i]) == coprime_count(m, m)

    def test_phi_array_rejects_empty(self):
        with pytest.raises(ValueError):
            next(odd_phi(0))

    # limits on both sides of prime squares, where a prime moves between
    # the sieving primes (p <= sqrt(limit)) and the one large factor left
    # over (m // s); the odd phi table runs to the largest odd m <= limit
    @pytest.mark.parametrize(
        "limit",
        [1, 2, 3, 4, 8, 9, 10, 11, 24, 25, 26, 27, 48, 49, 50, 51, 120, 121, 122,
         123, 10**5 + 3],
    )
    def test_tables_match_pointwise_around_prime_squares(self, limit):
        phi = phi_table((limit + 1) // 2)
        odd = range(1, limit + 1, 2)
        assert phi.tolist() == [coprime_count(m, m) for m in odd]

    def test_phi_matches_pointwise_at_the_segment_seams(self):
        # 2n - 1 is the first prime square past three seams.  Every m within
        # 2048 entries of a seam or of the end is checked: each window holds
        # a prime square (257^2, 367^2, 443^2 and 449^2 = 2n - 1 at segments
        # of 2^15) and products p*q whose larger prime is past sqrt(2n - 1),
        # found only as the factor left over
        seg = arith._SEGMENT
        p = next(q for q in range(math.isqrt(6 * seg) + 1, 10**4) if trial_spf(q) == q)
        n = (p * p + 1) // 2
        phi = phi_table(n)
        squares = {q * q for q in range(3, p + 1, 2) if trial_spf(q) == q}
        for seam in (seg, 2 * seg, 3 * seg, n):
            window = range(max(seam - 2048, 0), min(seam + 2048, n))
            assert any(2 * i + 1 in squares for i in window), seam
            got = [int(phi[i]) for i in window]
            assert got == [coprime_count(2 * i + 1, 2 * i + 1) for i in window], seam

    def test_primes_upto_matches_trial_division(self):
        for limit in range(0, 201):
            got = primes_upto(limit)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == [m for m in range(2, limit + 1) if trial_spf(m) == m]

    def test_prime_count_at_1e6(self):
        assert len(primes_upto(10**6)) == 78498

    def test_primality_matches_smallest_factor(self):
        ps = set(primes_upto(10**4).tolist())
        for m in range(1, 10**4 + 1):
            assert (m in ps) == (m >= 2 and smallest_factor(m) == m)
