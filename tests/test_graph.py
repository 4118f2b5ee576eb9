import math
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_census import counts
from coprime_census.arith import primes_upto
from coprime_census.graph import (
    BitMatrix,
    build_anti,
    build_full_coprime,
    build_gcd_k,
    _from_predicate,
    build_odd_half,
    odd_plus_rows,
    smallest_factor,
)
from coprime_census.permanent import permanent_dp, permanent_ryser


def bit(m: BitMatrix, i: int, j: int) -> int:
    return (m.rows[i] >> j) & 1


def as_lists(m: BitMatrix) -> list[list[int]]:
    return [[bit(m, i, j) for j in range(m.n)] for i in range(m.n)]


def prime_set(limit: int) -> set[int]:
    """The primes <= limit from the numpy odd sieve, the oracle for the
    trial-division ``smallest_factor``."""
    return set(primes_upto(limit).tolist())


class TestFullCoprime:
    def test_one(self):
        assert as_lists(build_full_coprime(1)) == [[1]]

    def test_two(self):
        assert as_lists(build_full_coprime(2)) == [[1, 1], [1, 0]]

    @given(st.integers(1, 40))
    @settings(max_examples=25)
    def test_symmetric_with_unit_border(self, n):
        m = build_full_coprime(n)
        assert m.labels_row == m.labels_col == tuple(range(1, n + 1))
        for i in range(n):
            assert bit(m, i, 0) == 1 and bit(m, 0, i) == 1
            for j in range(i):
                assert bit(m, i, j) == bit(m, j, i)

    @given(st.integers(1, 30))
    @settings(max_examples=25)
    def test_predicate(self, n):
        m = build_full_coprime(n)
        for i in range(n):
            for j in range(n):
                assert bit(m, i, j) == (gcd(i + 1, j + 1) == 1)


class TestOddHalf:
    def test_one(self):
        assert as_lists(build_odd_half(1)) == [[1]]

    def test_labels(self):
        m = build_odd_half(4)
        assert m.labels_row == (1, 3, 5, 7)
        assert m.labels_col == (1, 2, 3, 4)

    def test_permanents_match_published(self):
        assert permanent_ryser(build_odd_half(3)) == 4
        assert permanent_ryser(build_odd_half(10)) == 565920

    @given(st.integers(1, 60))
    @settings(max_examples=30)
    def test_row_structure(self, n):
        m = build_odd_half(n)
        assert m.rows[0] == (1 << n) - 1  # the 1-row is all ones
        primes = prime_set(2 * n)
        for i, p in enumerate(m.labels_row):
            if p > 2 and p in primes:
                zeros = n - m.rows[i].bit_count()
                assert zeros == n // p


def excluding(n: int, a: int) -> tuple[int, ...]:
    """The C_(a)(n) matrix: ``odd_plus_rows(n)`` without the row of a."""
    rows = odd_plus_rows(n)
    return rows[: a // 2] + rows[a // 2 + 1 :]


def coprime(x: int, y: int) -> bool:
    return gcd(x, y) == 1


class TestOddPlusExcluding:
    def test_examples(self):
        assert excluding(1, 1) == (0b1,)  # the row of 3 against column 1
        assert permanent_dp(excluding(2, 3)) == 2
        assert permanent_dp(excluding(1, 3)) == 1

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            counts.count_c_a(3, 4)
        with pytest.raises(ValueError):
            counts.count_c_a(3, 9)

    @given(st.integers(1, 25))
    @settings(max_examples=20)
    def test_column_labels(self, n):
        # the rows left stand for the other odd numbers, in order
        odds = range(1, 2 * n + 2, 2)
        for a in odds:
            kept = [v for v in odds if v != a]
            want = _from_predicate(kept, range(1, n + 1), coprime).rows
            assert excluding(n, a) == want

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_odd_plus_rows_without_a_is_the_transpose(self, n):
        # of the matrix of [n] against the first n+1 odd numbers but a
        rows = odd_plus_rows(n)
        assert len(rows) == n + 1
        for i, a in enumerate(range(1, 2 * n + 2, 2)):
            cols = [v for v in range(1, 2 * n + 2, 2) if v != a]
            m = _from_predicate(range(1, n + 1), cols, coprime)
            kept = rows[:i] + rows[i + 1 :]
            assert all(((kept[j] >> r) & 1) == bit(m, r, j) for r in range(n) for j in range(n))
        with pytest.raises(ValueError):
            odd_plus_rows(0)


class TestAnti:
    def test_reduction_small(self):
        m = build_anti(4)
        assert m.labels_row == (2, 4)
        assert permanent_ryser(m) == 2

    def test_published_values(self):
        assert permanent_ryser(build_anti(6)) == 8
        assert permanent_ryser(build_anti(9)) == 72

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_anti(0)
        # n = 1: 1 is a forced fixed point, leaving the 0 x 0 matrix
        m = build_anti(1)
        assert m.n == 0 and m.labels_row == () and permanent_ryser(m) == 1

    @given(st.integers(2, 40))
    @settings(max_examples=25)
    def test_removed_indices_are_forced_fixed_points(self, n):
        m = build_anti(n)
        removed = set(range(2, n + 1)) - set(m.labels_row)
        assert removed == {p for p in prime_set(n) if 2 * p > n}
        for i, a in enumerate(m.labels_row):
            for j, b in enumerate(m.labels_col):
                assert bit(m, i, j) == (gcd(a, b) > 1)


class TestGcdK:
    def test_published_values(self):
        assert permanent_ryser(build_gcd_k(6, 2)) == 36
        assert permanent_ryser(build_gcd_k(6, 3)) == 16

    def test_large_k_is_full_coprimality(self):
        assert build_gcd_k(4, 7).rows == build_full_coprime(4).rows
        assert permanent_dp(build_gcd_k(4, 7).rows) == permanent_dp(build_full_coprime(4).rows)
        # primes above n are never listed, so k = 10^8 costs no more than k = n
        assert build_gcd_k(12, 10**8).rows == build_full_coprime(12).rows

    @given(st.integers(1, 20), st.integers(2, 8))
    @settings(max_examples=40)
    def test_entrywise_against_full(self, n, k):
        m = build_gcd_k(n, k)
        if k >= n:
            assert m.rows == build_full_coprime(n).rows
        full = build_full_coprime(n)
        for i in range(n):
            # relaxing the constraint can only add ones
            assert m.rows[i] & full.rows[i] == full.rows[i]

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_gcd_k(4, 1)


class TestBitMatrix:
    def test_dump_format(self):
        m = build_odd_half(3)
        assert m.to_text() == "rows: 1 3 5\ncols: 1 2 3\n111\n110\n111"

    def test_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(n=2, rows=(1,), labels_row=(1, 2), labels_col=(1, 2))
        with pytest.raises(ValueError):
            BitMatrix(n=1, rows=(2,), labels_row=(1,), labels_col=(1,))


class TestSmallestFactor:
    """The trial-division helper against the numpy odd sieve as oracle."""

    def test_equals_the_sieve(self):
        ps = primes_upto(10**4).tolist()
        for m in range(2, 10**4 + 1):
            # the first prime of the sieve that divides m
            assert smallest_factor(m) == next(p for p in ps if m % p == 0), m

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            smallest_factor(1)

    def test_builders_and_tables_equal_the_sieve_versions(self, monkeypatch):
        ps = primes_upto(200).tolist()
        primes = set(ps)
        spf = {m: next(p for p in ps if m % p == 0) for m in range(2, 201)}
        # table_rows with the row count stubbed out yields its n list
        monkeypatch.setattr(counts, "_table_row", lambda which, n, ceiling: n)
        t3 = [n for n in range(4, 201) if n not in primes]
        assert counts.table_rows("t3", 200) == t3
        for n in range(2, 201):
            want = [m for m in range(2, n + 1) if not (m in primes and 2 * m > n)]
            assert list(build_anti(n).labels_row) == want, n
            sizes = Counter(spf[m] for m in range(2, n + 1))
            lower = math.prod(math.factorial(c) for c in sizes.values())
            assert counts.anti_lower(n) == lower, n
