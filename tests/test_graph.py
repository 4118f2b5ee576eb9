import math
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_census import counts
from coprime_census.arith import primes_upto
from coprime_census.graph import BitMatrix, incidence, matrix, smallest_factor
from coprime_census.permanent import permanent_dp, permanent_ryser


def bit(m: BitMatrix, i: int, j: int) -> int:
    return (m.rows[i] >> j) & 1


def as_lists(m: BitMatrix) -> list[list[int]]:
    return [[bit(m, i, j) for j in range(m.n)] for i in range(len(m.rows))]


def bit_rows(xs, ys, pred) -> tuple[int, ...]:
    """Row bit-vectors of the matrix with bit (i, j) iff pred(xs[i], ys[j])."""
    return tuple(sum(pred(x, y) << j for j, y in enumerate(ys)) for x in xs)


def prime_set(limit: int) -> set[int]:
    """The primes <= limit from the numpy odd sieve, the oracle for the
    trial-division ``smallest_factor``."""
    return set(primes_upto(limit).tolist())


class TestFullCoprime:
    def test_one(self):
        assert as_lists(matrix("c", 1)) == [[1]]

    def test_two(self):
        assert as_lists(matrix("c", 2)) == [[1, 1], [1, 0]]

    @given(st.integers(1, 40))
    @settings(max_examples=25)
    def test_symmetric_with_unit_border(self, n):
        m = matrix("c", n)
        assert m.labels_row == m.labels_col == tuple(range(1, n + 1))
        for i in range(n):
            assert bit(m, i, 0) == 1 and bit(m, 0, i) == 1
            for j in range(i):
                assert bit(m, i, j) == bit(m, j, i)

    @given(st.integers(1, 30))
    @settings(max_examples=25)
    def test_predicate(self, n):
        m = matrix("c", n)
        for i in range(n):
            for j in range(n):
                assert bit(m, i, j) == (gcd(i + 1, j + 1) == 1)


class TestOddHalf:
    def test_one(self):
        assert as_lists(matrix("c0", 1)) == [[1]]

    def test_labels(self):
        m = matrix("c0", 4)
        assert m.labels_row == (1, 3, 5, 7)
        assert m.labels_col == (1, 2, 3, 4)

    def test_permanents_match_published(self):
        assert permanent_ryser(matrix("c0", 3)) == 4
        assert permanent_ryser(matrix("c0", 10)) == 565920

    @given(st.integers(1, 60))
    @settings(max_examples=30)
    def test_row_structure(self, n):
        m = matrix("c0", n)
        assert m.rows[0] == (1 << n) - 1  # the 1-row is all ones
        primes = prime_set(2 * n)
        for i, p in enumerate(m.labels_row):
            if p > 2 and p in primes:
                zeros = n - m.rows[i].bit_count()
                assert zeros == n // p


def excluding(n: int, a: int) -> tuple[int, ...]:
    """The C_(a)(n) matrix: the ("ca", n) matrix without the row of a."""
    rows = matrix("ca", n).rows
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
            want = bit_rows(kept, range(1, n + 1), coprime)
            assert excluding(n, a) == want

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_odd_plus_rows_without_a_is_the_transpose(self, n):
        # of the matrix of [n] against the first n+1 odd numbers but a
        rows = matrix("ca", n).rows
        assert len(rows) == n + 1
        # the last row, of 2n+1, deleted leaves the C0(n) matrix
        assert rows[:-1] == matrix("c0", n).rows
        for i, a in enumerate(range(1, 2 * n + 2, 2)):
            cols = [v for v in range(1, 2 * n + 2, 2) if v != a]
            t = bit_rows(range(1, n + 1), cols, coprime)
            kept = rows[:i] + rows[i + 1 :]
            for r in range(n):
                assert all(((kept[j] >> r) & 1) == ((t[r] >> j) & 1) for j in range(n))
        with pytest.raises(ValueError):
            matrix("ca", 0)


class TestAnti:
    def test_reduction_small(self):
        m = matrix("a", 4)
        assert m.labels_row == (2, 4)
        assert permanent_ryser(m) == 2

    def test_published_values(self):
        assert permanent_ryser(matrix("a", 6)) == 8
        assert permanent_ryser(matrix("a", 9)) == 72

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            matrix("a", 0)
        # n = 1: 1 is a forced fixed point, leaving the 0 x 0 matrix
        m = matrix("a", 1)
        assert m.n == 0 and m.labels_row == () and permanent_ryser(m) == 1

    @given(st.integers(2, 40))
    @settings(max_examples=25)
    def test_removed_indices_are_forced_fixed_points(self, n):
        m = matrix("a", n)
        removed = set(range(2, n + 1)) - set(m.labels_row)
        assert removed == {p for p in prime_set(n) if 2 * p > n}
        for i, a in enumerate(m.labels_row):
            for j, b in enumerate(m.labels_col):
                assert bit(m, i, j) == (gcd(a, b) > 1)


class TestGcdK:
    def test_published_values(self):
        assert permanent_ryser(matrix("ck", 6, 2)) == 36
        assert permanent_ryser(matrix("ck", 6, 3)) == 16

    def test_large_k_is_full_coprimality(self):
        assert matrix("ck", 4, 7).rows == matrix("c", 4).rows
        assert permanent_dp(matrix("ck", 4, 7).rows) == permanent_dp(matrix("c", 4).rows)
        # primes above n are never listed, so k = 10^8 costs no more than k = n
        assert matrix("ck", 12, 10**8).rows == matrix("c", 12).rows

    @given(st.integers(1, 20), st.integers(2, 8))
    @settings(max_examples=40)
    def test_entrywise_against_full(self, n, k):
        m = matrix("ck", n, k)
        if k >= n:
            assert m.rows == matrix("c", n).rows
        full = matrix("c", n)
        for i in range(n):
            # relaxing the constraint can only add ones
            assert m.rows[i] & full.rows[i] == full.rows[i]

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            matrix("ck", 4, 1)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 10**8])
    def test_bits_equal_the_prime_rule(self, k):
        # gcd(i, j, min(k, n)!) = 1 iff no prime <= min(k, n) divides gcd(i, j)
        primes = sorted(prime_set(30))
        for n in range(1, 31):
            small = [p for p in primes if p <= min(k, n)]
            m = matrix("ck", n, k)
            for i in range(n):
                for j in range(n):
                    g = gcd(i + 1, j + 1)
                    assert bit(m, i, j) == all(g % p for p in small), (n, k, i, j)


class TestBitMatrix:
    def test_dump_format(self):
        m = matrix("c0", 3)
        assert m.to_text() == "rows: 1 3 5\ncols: 1 2 3\n111\n110\n111"
        # one line per row, also past the n columns
        tall = matrix("ca", 3)
        assert tall.to_text() == "rows: 1 3 5 7\ncols: 1 2 3\n111\n110\n111\n111"

    def test_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(n=2, rows=(1,), labels_row=(1, 2), labels_col=(1, 2))
        with pytest.raises(ValueError):
            BitMatrix(n=1, rows=(2,), labels_row=(1,), labels_col=(1,))
        with pytest.raises(ValueError):
            BitMatrix(n=1, rows=(1,), labels_row=(1,), labels_col=(1, 2))
        # n columns, any number of labelled rows
        assert BitMatrix(n=1, rows=(1, 1), labels_row=(1, 3), labels_col=(1,)).n == 1


class TestIncidence:
    @pytest.mark.parametrize(
        "kind, n, aux, rows, cols",
        [
            ("c", 4, None, [1, 2, 3, 4], [1, 2, 3, 4]),
            ("c0", 4, None, [1, 3, 5, 7], [1, 2, 3, 4]),
            ("ca", 4, None, [1, 3, 5, 7, 9], [1, 2, 3, 4]),
            # 7 is the one prime in (5, 10]; 1 is always fixed
            ("a", 10, None, [2, 3, 4, 5, 6, 8, 9, 10], [2, 3, 4, 5, 6, 8, 9, 10]),
            ("a", 1, None, [], []),
            ("ck", 4, 3, [1, 2, 3, 4], [1, 2, 3, 4]),
        ],
    )
    def test_labels_at_small_n(self, kind, n, aux, rows, cols):
        xs, ys, _ = incidence(kind, n, aux)
        assert (list(xs), list(ys)) == (rows, cols)
        m = matrix(kind, n, aux)
        assert (list(m.labels_row), list(m.labels_col), m.n) == (rows, cols, len(cols))

    @pytest.mark.parametrize("kind", ["c1", "zz"])
    def test_refuses_kinds_that_are_not_one_matrix(self, kind):
        with pytest.raises(ValueError, match="not the permanent of one matrix"):
            matrix(kind, 3)


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
        monkeypatch.setattr(counts, "table_row", lambda which, n, ceiling: n)
        t3 = [n for n in range(4, 201) if n not in primes]
        assert counts.table_rows("t3", 200) == t3
        for n in range(2, 201):
            want = [m for m in range(2, n + 1) if not (m in primes and 2 * m > n)]
            assert incidence("a", n)[0] == want, n
            sizes = Counter(spf[m] for m in range(2, n + 1))
            lower = math.prod(math.factorial(c) for c in sizes.values())
            assert counts.anti_lower(n) == lower, n
