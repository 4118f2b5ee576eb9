import math
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_census import counts, graph
from coprime_census.arith import primes_upto
from coprime_census.graph import (
    CapacityError,
    admit,
    anti_labels,
    dump,
    incidence,
    matrix,
    prime_factors,
    smallest_factor,
)
from coprime_census.permanent import ClassTable, class_table, permanent_dp, permanent_ryser
from coprime_census.reference import TABLE_A


def bit(rows: tuple[int, ...], i: int, j: int) -> int:
    return (rows[i] >> j) & 1


def as_lists(rows: tuple[int, ...]) -> list[list[int]]:
    """The entries of a square bit matrix."""
    return [[bit(rows, i, j) for j in range(len(rows))] for i in range(len(rows))]


def bit_table(kind: str, n: int, aux: int | None = None) -> ClassTable:
    """The class table grouped from the bits of ``matrix(kind, n, aux)``."""
    width = len(incidence(kind, n, aux)[1])
    return class_table(matrix(kind, n, aux), [1] * width)


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
        xs, ys, _, _ = incidence("c", n)
        assert tuple(xs) == tuple(ys) == tuple(range(1, n + 1))
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
        xs, ys, _, _ = incidence("c0", 4)
        assert tuple(xs) == (1, 3, 5, 7)
        assert tuple(ys) == (1, 2, 3, 4)

    def test_permanents_match_published(self):
        assert permanent_ryser(bit_table("c0", 3)) == 4
        assert permanent_ryser(bit_table("c0", 10)) == 565920

    @given(st.integers(1, 60))
    @settings(max_examples=30)
    def test_row_structure(self, n):
        m = matrix("c0", n)
        assert m[0] == (1 << n) - 1  # the 1-row is all ones
        primes = prime_set(2 * n)
        for i, p in enumerate(incidence("c0", n)[0]):
            if p > 2 and p in primes:
                zeros = n - m[i].bit_count()
                assert zeros == n // p


def excluding(n: int, a: int) -> tuple[int, ...]:
    """The C_(a)(n) matrix: the ("ca", n) matrix without the row of a."""
    rows = matrix("ca", n)
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
        rows = matrix("ca", n)
        assert len(rows) == n + 1
        # the last row, of 2n+1, deleted leaves the C0(n) matrix
        assert rows[:-1] == matrix("c0", n)
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
        assert list(incidence("a", 4)[0]) == [2, 4]
        assert permanent_ryser(bit_table("a", 4)) == 2

    def test_published_values(self):
        assert permanent_ryser(bit_table("a", 6)) == 8
        assert permanent_ryser(bit_table("a", 9)) == 72

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            matrix("a", 0)
        # n = 1: 1 is a forced fixed point, leaving the 0 x 0 matrix
        assert matrix("a", 1) == () and list(incidence("a", 1)[1]) == []
        assert permanent_ryser(bit_table("a", 1)) == 1

    @given(st.integers(2, 40))
    @settings(max_examples=25)
    def test_removed_indices_are_forced_fixed_points(self, n):
        m = matrix("a", n)
        xs, ys, _, _ = incidence("a", n)
        removed = set(range(2, n + 1)) - set(xs)
        assert removed == {p for p in prime_set(n) if 2 * p > n}
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert bit(m, i, j) == (gcd(a, b) > 1)


class TestGcdK:
    def test_published_values(self):
        assert permanent_ryser(bit_table("ck", 6, 2)) == 36
        assert permanent_ryser(bit_table("ck", 6, 3)) == 16

    def test_large_k_is_full_coprimality(self):
        assert matrix("ck", 4, 7) == matrix("c", 4)
        assert permanent_dp(matrix("ck", 4, 7)) == permanent_dp(matrix("c", 4))
        # primes above n are never listed, so k = 10^8 costs no more than k = n
        assert matrix("ck", 12, 10**8) == matrix("c", 12)

    @given(st.integers(1, 20), st.integers(2, 8))
    @settings(max_examples=40)
    def test_entrywise_against_full(self, n, k):
        m = matrix("ck", n, k)
        if k >= n:
            assert m == matrix("c", n)
        full = matrix("c", n)
        for i in range(n):
            # relaxing the constraint can only add ones
            assert m[i] & full[i] == full[i]

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
        assert dump("c0", 3) == "rows: 1 3 5\ncols: 1 2 3\n111\n110\n111"
        # one line per row, also past the n columns
        assert dump("ca", 3) == "rows: 1 3 5 7\ncols: 1 2 3\n111\n110\n111\n111"


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
            ("c1", 4, None, [1, 3, 5, 7, 9], [1, 1, 2, 3, 4]),  # the ca matrix, column 1 twice
        ],
    )
    def test_labels_at_small_n(self, kind, n, aux, rows, cols):
        xs, ys, share, bound = incidence(kind, n, aux)
        assert (list(xs), list(ys)) == (rows, cols)
        # a: some common prime; ck 4, k = 3: none <= 3; the rest: none at all
        rule = {"a": (True, n), "ck": (False, 3)}.get(kind, (False, n))
        assert (share, bound) == rule
        m = matrix(kind, n, aux)
        assert len(m) == len(rows) and all(r >> len(cols) == 0 for r in m)

    @pytest.mark.parametrize(
        "kind, pred",
        [
            ("c0", lambda x, y: gcd(x, y) == 1),
            ("ca", lambda x, y: gcd(x, y) == 1),
            ("c1", lambda x, y: gcd(x, y) == 1),
            ("a", lambda x, y: gcd(x, y) > 1),
        ],
        ids=["c0", "ca", "c1", "a"],
    )
    def test_bits_equal_the_gcd_definition(self, kind, pred):
        for n in range(1, 31):
            xs, ys, _, _ = incidence(kind, n)
            assert matrix(kind, n) == bit_rows(xs, ys, pred), n

    @pytest.mark.parametrize("kind", ["zz"])
    def test_refuses_kinds_that_are_not_one_matrix(self, kind):
        # every kind in KINDS is one matrix; admit refuses any other
        with pytest.raises(ValueError, match=f"^no kind {kind!r}"):
            matrix(kind, 3)


class TestAdmit:
    """The one admission rule of every count route."""

    @pytest.mark.parametrize(
        "kind, n, aux, method, dim",
        [
            ("c", 30, None, "auto", 15),  # C(2m) = C0(m)^2, odd C from C_(a)(m)
            ("c", 30, None, "permanent", 30),
            ("c0", 30, None, "auto", 30),
            ("c1", 30, None, "auto", 31),  # the ca matrix with column 1 twice
            ("c1", 30, None, "permanent", 31),
            ("a", 24, None, "auto", 19),  # the reduced matrix on anti_labels
            ("a", 24, None, "permanent", 19),
            ("a", 12, None, "brute", 12),  # the oracle's DP runs over n rows
            ("ck", 30, 3, "auto", 30),
        ],
    )
    def test_largest_permanent_meets_the_ceiling(self, kind, n, aux, method, dim):
        admit(kind, n, aux, method=method, ceiling=dim)
        refusal = f"^permanent dimension {dim} exceeds ceiling {dim - 1}$"
        with pytest.raises(CapacityError, match=refusal):
            admit(kind, n, aux, method=method, ceiling=dim - 1)

    @pytest.mark.parametrize(
        "kind, n, aux, method, message",
        [
            ("ca", 3, None, "auto", "no kind 'ca'"),
            ("c", 3, None, "walk", "no method 'walk'"),
            ("ck", 3, None, "auto", "needs --aux K >= 2"),
            ("ck", 3, 1, "brute", "needs --aux K >= 2"),
            ("a", 3, 2, "auto", "only read by kind 'ck'"),
            ("c0", 0, None, "auto", "n must be >= 1"),
        ],
    )
    def test_malformed_requests(self, kind, n, aux, method, message):
        with pytest.raises(ValueError, match=message) as refused:
            admit(kind, n, aux, method=method)
        assert not isinstance(refused.value, CapacityError)

    def test_every_a_is_priced_by_its_labels(self):
        # admitted at len(anti_labels(n)) and refused one below it, whether
        # the labels are listed or a bound decides; a ceiling below 0 is
        # malformed, so at n <= 3, where there are no labels, -1 is too
        for n in range(1, 300):
            dim = len(anti_labels(n))
            admit("a", n, ceiling=dim)
            refused = CapacityError if dim else ValueError
            refusal = "dimension (at least )?[0-9]+ exceeds ceiling" if dim else "must be >= 0, not"
            refusal += f" {dim - 1}$"
            with pytest.raises(refused, match=refusal):
                admit("a", n, ceiling=dim - 1)

    @pytest.mark.parametrize(
        "kind, aux, method",
        # A(1)'s bound reads "at least -1": -2 is malformed, not past it
        [("a", None, "auto"), ("c1", None, "permanent"), ("ck", 2, "brute")],
    )
    def test_a_negative_ceiling_is_malformed(self, kind, aux, method):
        for ceiling in (-1, -2):
            message = f"^the ceiling must be >= 0, not {ceiling}$"
            with pytest.raises(ValueError, match=message) as refused:
                admit(kind, 1, aux, method=method, ceiling=ceiling)
            assert not isinstance(refused.value, CapacityError)

    def test_a_zero_ceiling_admits_the_counts_of_dimension_0(self):
        # C(1) by its reduction and A(1), whose reduced matrix is 0 x 0
        admit("c", 1, ceiling=0)
        admit("a", 1, ceiling=0)
        with pytest.raises(CapacityError, match="^permanent dimension 1 exceeds ceiling 0$"):
            admit("c0", 1, ceiling=0)

    def test_a_far_past_the_ceiling_is_refused_without_trial_division(self, monkeypatch):
        def unfactored(m):
            raise AssertionError("a label was trial-divided")

        monkeypatch.setattr(graph, "smallest_factor", unfactored)
        # 10^6 - 1 labels less the 250,000 odd m in (5 * 10^5, 10^6]
        refusal = "^permanent dimension at least 749999 exceeds ceiling 40$"
        with pytest.raises(CapacityError, match=refusal):
            counts.compute("a", 10**6)

    def test_an_admitted_a_lists_its_labels_once(self, monkeypatch):
        listed = []

        def counted(n):
            listed.append(n)
            return anti_labels(n)

        monkeypatch.setattr(graph, "anti_labels", counted)
        monkeypatch.setattr(counts, "_memo", {})
        assert counts.count_a(24) == TABLE_A[24][0]
        assert listed == [24]
        monkeypatch.setattr(counts, "_memo", {})
        listed.clear()
        assert counts.compute("a", 24).value == TABLE_A[24][0]
        assert listed == [24]


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

    def test_prime_factors_are_the_sieve_primes_dividing_m(self):
        ps = primes_upto(2000).tolist()
        for m in range(1, 2001):
            assert prime_factors(m) == tuple(p for p in ps if m % p == 0), m

    def test_builders_and_tables_equal_the_sieve_versions(self, monkeypatch):
        ps = primes_upto(200).tolist()
        primes = set(ps)
        spf = {m: next(p for p in ps if m % p == 0) for m in range(2, 201)}
        # table_rows with its count stubbed out lists its rows' n; a
        # ceiling that admits every row lets it list them all
        kind, _, listed = counts._TABLES["t3"]
        monkeypatch.setitem(counts._TABLES, "t3", (kind, lambda n: 1, listed))
        t3 = [n for n in range(4, 201) if n not in primes]
        assert [row["n"] for row in counts.table_rows("t3", 200, ceiling=200)] == t3
        for n in range(2, 201):
            want = [m for m in range(2, n + 1) if not (m in primes and 2 * m > n)]
            assert incidence("a", n)[0] == want, n
            sizes = Counter(spf[m] for m in range(2, n + 1))
            lower = math.prod(math.factorial(c) for c in sizes.values())
            assert counts.anti_lower(n) == lower, n
